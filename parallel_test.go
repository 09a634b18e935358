package stardust

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"stardust/internal/gen"
)

// newParityPair builds two identically configured DWT monitors — one serial
// (Workers: 1), one fanned out (Workers: 8) — and feeds both the same
// correlated-walk workload, so query results can be compared directly.
func newParityPair(t *testing.T, seed int64) (*Monitor, *Monitor) {
	t.Helper()
	cfg := Config{
		Streams: 8, W: 16, Levels: 4,
		Transform: DWT, Mode: Batch, Coefficients: 4,
		Normalization: NormZ, History: 600,
	}
	cfg.Parallel.Workers = 1
	serial, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel.Workers = 8
	fanned, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	data := gen.CorrelatedWalks(rng, cfg.Streams, 500, 2, 0.1)
	for i := 0; i < 500; i++ {
		for s := 0; s < cfg.Streams; s++ {
			mustIngest(t, serial, s, data[s][i])
			mustIngest(t, fanned, s, data[s][i])
		}
	}
	return serial, fanned
}

// TestParallelParityCorrelations: Workers=1 and Workers=8 must produce
// byte-identical correlation rounds — same candidates in the same order,
// same verified pairs with the same distances.
func TestParallelParityCorrelations(t *testing.T) {
	serial, fanned := newParityPair(t, 731)
	for _, r := range []float64{0.2, 0.5, 1.0, 2.0} {
		for level := 0; level < 4; level++ {
			a, errA := serial.Correlations(level, r)
			b, errB := fanned.Correlations(level, r)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("level %d r %g: error mismatch %v vs %v", level, r, errA, errB)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("level %d r %g: serial %+v != parallel %+v", level, r, a, b)
			}
		}
	}
}

// TestParallelParityLagged: the lagged screen's per-worker dedup maps must
// partition exactly like the serial loop's shared map.
func TestParallelParityLagged(t *testing.T) {
	serial, fanned := newParityPair(t, 733)
	for _, lag := range []int{0, 16, 64} {
		for _, r := range []float64{0.5, 1.5} {
			a, errA := serial.LaggedCorrelations(3, r, lag)
			b, errB := fanned.LaggedCorrelations(3, r, lag)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("lag %d: error mismatch %v vs %v", lag, errA, errB)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("lag %d r %g: serial %+v != parallel %+v", lag, r, a, b)
			}
		}
	}
}

// TestParallelParityFindPattern covers both pattern algorithms (online and
// batch mode summaries) at several radii, including radii wide enough to
// produce many overlapping candidates.
func TestParallelParityFindPattern(t *testing.T) {
	for _, mode := range []Mode{Online, Batch} {
		rng := rand.New(rand.NewSource(737))
		data := gen.HostLoads(rng, 4, 600)
		cfg := Config{
			Streams: 4, W: 16, Levels: 4,
			Transform: DWT, Mode: mode, Coefficients: 4,
			Normalization: NormUnit, Rmax: 4, History: 600,
		}
		cfg.Parallel.Workers = 1
		serial, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Parallel.Workers = 8
		fanned, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 600; i++ {
			for s := 0; s < 4; s++ {
				mustIngest(t, serial, s, data[s][i])
				mustIngest(t, fanned, s, data[s][i])
			}
		}
		q := make([]float64, 80)
		copy(q, data[2][400:480])
		for _, r := range []float64{0.02, 0.1, 0.5, 2.0} {
			a, errA := serial.FindPattern(q, r)
			b, errB := fanned.FindPattern(q, r)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%v r %g: error mismatch %v vs %v", mode, r, errA, errB)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%v r %g: serial %+v != parallel %+v", mode, r, a, b)
			}
		}
	}
}

// TestParallelParityNearestPatterns: the k-NN merge must preserve the
// serial candidate order so distance ties resolve identically.
func TestParallelParityNearestPatterns(t *testing.T) {
	serial, fanned := newParityPair(t, 739)
	q := make([]float64, 64)
	for i := range q {
		q[i] = math.Sin(float64(i) / 5)
	}
	for _, k := range []int{1, 5, 25} {
		a, errA := serial.NearestPatterns(q, k)
		b, errB := fanned.NearestPatterns(q, k)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("k %d: error mismatch %v vs %v", k, errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("k %d: serial %+v != parallel %+v", k, a, b)
		}
	}
}

// TestSetParallelism exercises the runtime knob and its NumCPU default.
func TestSetParallelism(t *testing.T) {
	m, err := New(Config{Streams: 2, W: 8, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.Parallelism() < 1 {
		t.Fatalf("default parallelism %d < 1", m.Parallelism())
	}
	m.SetParallelism(3)
	if got := m.Parallelism(); got != 3 {
		t.Fatalf("Parallelism = %d after SetParallelism(3)", got)
	}
	m.SetParallelism(0) // 0 re-selects the NumCPU default
	if m.Parallelism() < 1 {
		t.Fatalf("parallelism %d < 1 after reset", m.Parallelism())
	}
}

// TestIngestBatchEquivalence: IngestBatch must be observationally identical
// to a loop of Ingest — same clocks, same query results, same joined
// errors for inadmissible samples.
func TestIngestBatchEquivalence(t *testing.T) {
	cfg := Config{
		Streams: 3, W: 16, Levels: 4,
		Transform: DWT, Mode: Batch, Coefficients: 4,
		Normalization: NormZ, History: 600,
	}
	one, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(741))
	data := gen.CorrelatedWalks(rng, 3, 512, 2, 0.1)
	// Poison a few samples so both paths exercise the skip-and-join
	// contract (default guard policy rejects non-finite values).
	for s := 0; s < 3; s++ {
		data[s][100] = math.NaN()
		data[s][300] = math.Inf(1)
	}
	for s := 0; s < 3; s++ {
		var loopErrs, batchErr error
		nerr := 0
		for _, v := range data[s] {
			if err := one.Ingest(s, v); err != nil {
				nerr++
				loopErrs = err
			}
		}
		// Split the stream into uneven chunks to cover batch boundaries.
		for lo := 0; lo < len(data[s]); {
			hi := lo + 1 + (lo % 97)
			if hi > len(data[s]) {
				hi = len(data[s])
			}
			if err := batch.IngestBatch(s, data[s][lo:hi]); err != nil {
				batchErr = err
			}
			lo = hi
		}
		if nerr != 2 || loopErrs == nil || batchErr == nil {
			t.Fatalf("stream %d: expected 2 rejected samples on both paths (loop %d/%v, batch %v)",
				s, nerr, loopErrs, batchErr)
		}
		if one.Now(s) != batch.Now(s) {
			t.Fatalf("stream %d: clock %d != %d", s, one.Now(s), batch.Now(s))
		}
	}
	ra, errA := one.Correlations(3, 0.8)
	rb, errB := batch.Correlations(3, 0.8)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("post-ingest correlations differ: %+v vs %+v", ra, rb)
	}
	sa, sb := one.Stats(), batch.Stats()
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("summary stats differ: %+v vs %+v", sa, sb)
	}
	// Batch metrics must account every sample once.
	ms := batch.Metrics()
	if ms.Ingest.Samples != 3*512 {
		t.Fatalf("batch monitor counted %d samples, want %d", ms.Ingest.Samples, 3*512)
	}
	if ms.Ingest.Batches == 0 {
		t.Fatal("batch monitor recorded no batches")
	}
}

// TestIngestBatchWrappers drives the bulk path through every Interface
// implementation so the contract holds regardless of synchronization
// wrapper.
func TestIngestBatchWrappers(t *testing.T) {
	cfg := Config{Streams: 4, W: 8, Levels: 3, Transform: Sum, BoxCapacity: 4}
	vs := make([]float64, 64)
	for i := range vs {
		vs[i] = float64(i % 7)
	}

	safe, err := newSafeWatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSharded(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	watcher := NewSafeWatcher(plain)

	for _, b := range []Interface{safe, sharded, watcher} {
		for s := 0; s < cfg.Streams; s++ {
			if err := b.IngestBatch(s, vs); err != nil {
				t.Fatalf("%T stream %d: %v", b, s, err)
			}
			if got := b.Now(s); got != int64(len(vs))-1 {
				t.Fatalf("%T stream %d: Now = %d", b, s, got)
			}
		}
		if err := b.IngestBatch(-1, vs); err == nil {
			t.Fatalf("%T: negative stream must fail", b)
		}
		if err := b.IngestBatch(0, nil); err != nil {
			t.Fatalf("%T: empty batch must be a no-op, got %v", b, err)
		}
	}

	// The watcher's bulk path must still fire standing queries.
	plain2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := NewSafeWatcher(plain2)
	if _, err := w.WatchAggregate(0, 8, 20, false); err != nil {
		t.Fatal(err)
	}
	var fired int
	w.SetEventSink(func(evs []Event) { fired += len(evs) })
	if err := w.IngestBatch(0, vs); err != nil {
		t.Fatal(err)
	}
	if fired == 0 {
		t.Fatal("standing aggregate query did not fire through IngestBatch")
	}
}
