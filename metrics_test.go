package stardust

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"stardust/internal/core"
	"stardust/internal/gen"
	"stardust/internal/obs"
)

// TestMonitorMetricsIngest: the ingest counters track exactly what the
// guard admitted, and the index counters observe the resulting inserts
// (on a DWT summary: only those keep a level index).
func TestMonitorMetricsIngest(t *testing.T) {
	m, err := New(Config{Streams: 2, W: 8, Levels: 3, Transform: DWT, Mode: Batch, Normalization: NormZ})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := m.Ingest(0, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// A rejected sample must count as a sample but not as accepted.
	if err := m.Ingest(0, math.NaN()); err == nil {
		t.Fatal("NaN should be rejected under the default policy")
	}
	snap := m.Metrics()
	if snap.Ingest.Samples != n+1 {
		t.Fatalf("samples = %d, want %d", snap.Ingest.Samples, n+1)
	}
	if snap.Ingest.Accepted != n {
		t.Fatalf("accepted = %d, want %d", snap.Ingest.Accepted, n)
	}
	if snap.Ingest.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", snap.Ingest.Rejected)
	}
	if snap.Tree.Inserts == 0 {
		t.Fatal("no index inserts observed after 200 appends")
	}
	if snap.Tree.NodeWrites < snap.Tree.Inserts {
		t.Fatalf("node writes %d < inserts %d", snap.Tree.NodeWrites, snap.Tree.Inserts)
	}
}

// TestAggregateMonitorsKeepNoIndex: SUM, MAX, MIN and SPREAD monitors fed
// through many history turnovers make no R*-tree insert or delete, in the
// metrics snapshot and in the exported stardust_index_* series, and report
// every level as unindexed.
func TestAggregateMonitorsKeepNoIndex(t *testing.T) {
	for _, tr := range []Transform{Sum, Max, Min, Spread} {
		m, err := New(Config{Streams: 3, W: 4, Levels: 3, Transform: tr, BoxCapacity: 2, History: 64})
		if err != nil {
			t.Fatal(err)
		}
		data := gen.RandomWalks(rand.New(rand.NewSource(91)), 3, 1024)
		for s := range data {
			for i := 0; i < len(data[s]); i += 16 {
				if err := m.IngestBatch(s, data[s][i:i+16]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := m.AggregateBound(0, 16); err != nil {
			t.Fatalf("%v: %v", tr, err)
		}
		snap := m.Metrics()
		if snap.Tree.Inserts != 0 || snap.Tree.Deletes != 0 {
			t.Fatalf("%v: %d index inserts, %d deletes", tr, snap.Tree.Inserts, snap.Tree.Deletes)
		}
		var prom bytes.Buffer
		if err := obs.WriteProm(&prom, snap); err != nil {
			t.Fatal(err)
		}
		for _, series := range []string{"stardust_index_inserts_total 0\n", "stardust_index_deletes_total 0\n"} {
			if !strings.Contains(prom.String(), series) {
				t.Fatalf("%v: exposition lacks %q", tr, series)
			}
		}
		for j, l := range m.Stats().Levels {
			if l.Indexed || l.IndexEntries != 0 {
				t.Fatalf("%v: level %d indexed %v with %d entries", tr, j, l.Indexed, l.IndexEntries)
			}
		}
	}
}

// TestMonitorMetricsQueryClasses: per-class counters match what the query
// results themselves report.
func TestMonitorMetricsQueryClasses(t *testing.T) {
	m, err := New(Config{
		Streams: 4, W: 16, Levels: 3, Transform: DWT, Mode: Batch,
		Coefficients: 4, Normalization: NormUnit, Rmax: 150, History: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	data := gen.RandomWalks(rng, 4, 300)
	for i := 0; i < 300; i++ {
		for s := 0; s < 4; s++ {
			if err := m.Ingest(s, data[s][i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	q := make([]float64, 48)
	copy(q, data[2][200:248])
	res, err := m.FindPattern(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Metrics()
	if snap.Pattern.Queries != 1 {
		t.Fatalf("pattern queries = %d", snap.Pattern.Queries)
	}
	if snap.Pattern.Candidates != int64(len(res.Candidates)) {
		t.Fatalf("candidates counter %d != result %d", snap.Pattern.Candidates, len(res.Candidates))
	}
	if snap.Pattern.Verified != int64(res.Relevant) {
		t.Fatalf("verified counter %d != relevant %d", snap.Pattern.Verified, res.Relevant)
	}
	if got, want := snap.Pattern.PruningPower(), res.Precision(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("pruning power %g != result precision %g", got, want)
	}
	if snap.Pattern.Latency.Count != 1 {
		t.Fatalf("latency observations = %d", snap.Pattern.Latency.Count)
	}
	if snap.Tree.Searches == 0 {
		t.Fatal("pattern query ran no index searches")
	}
}

// TestMetricsMonotonicUnderConcurrency: counters only ever grow while
// ingest, queries and snapshot reads race (the -race target of the PR).
func TestMetricsMonotonicUnderConcurrency(t *testing.T) {
	m, err := newSafeWatcher(Config{Streams: 4, W: 8, Levels: 3, Transform: Sum, BoxCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	var writers, reader sync.WaitGroup
	stop := make(chan struct{})
	for s := 0; s < 4; s++ {
		writers.Add(1)
		go func(s int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			for i := 0; i < 2000; i++ {
				if err := m.Ingest(s, rng.Float64()*10); err != nil {
					t.Error(err)
					return
				}
				if i%100 == 99 { // window 16 needs data before the first check
					if _, err := m.CheckAggregate(s, 16, 40); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(s)
	}
	reader.Add(1)
	go func() {
		defer reader.Done()
		var prevSamples, prevReads, prevQueries int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := m.Metrics()
			if snap.Ingest.Samples < prevSamples {
				t.Errorf("samples went backwards: %d -> %d", prevSamples, snap.Ingest.Samples)
				return
			}
			if snap.Tree.NodeReads < prevReads {
				t.Errorf("node reads went backwards: %d -> %d", prevReads, snap.Tree.NodeReads)
				return
			}
			if snap.Aggregate.Queries < prevQueries {
				t.Errorf("queries went backwards: %d -> %d", prevQueries, snap.Aggregate.Queries)
				return
			}
			prevSamples, prevReads, prevQueries = snap.Ingest.Samples, snap.Tree.NodeReads, snap.Aggregate.Queries
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()

	snap := m.Metrics()
	if snap.Ingest.Samples != 4*2000 {
		t.Fatalf("final samples = %d, want %d", snap.Ingest.Samples, 4*2000)
	}
	if snap.Aggregate.Queries != 4*20 {
		t.Fatalf("final aggregate queries = %d, want %d", snap.Aggregate.Queries, 4*20)
	}
}

// TestSafeWatcherEventSink: Interface-shaped ingestion on a SafeWatcher
// delivers standing-query events through the registered sink.
func TestSafeWatcherEventSink(t *testing.T) {
	m, err := New(Config{Streams: 2, W: 4, Levels: 3, Transform: Sum, BoxCapacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := NewSafeWatcher(m)
	id, err := w.WatchAggregate(0, 8, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []Event
	w.SetEventSink(func(evs []Event) {
		mu.Lock()
		got = append(got, evs...)
		mu.Unlock()
	})
	for i := 0; i < 20; i++ {
		if err := w.Ingest(0, 2); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := w.IngestAll([]float64{50, 1}); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 {
		t.Fatal("burst produced no events through the sink")
	}
	for _, e := range got {
		if e.WatchID != id {
			t.Fatalf("event for unknown watch: %+v", e)
		}
	}
}

// BenchmarkIngestInstrumented vs BenchmarkIngestBare bound the overhead of
// the observability layer on the hot append path (the PR's <10% budget).
func BenchmarkIngestInstrumented(b *testing.B) {
	m, err := New(Config{Streams: 1, W: 32, Levels: 6, Transform: Sum, BoxCapacity: 64})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Ingest(0, rng.Float64()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIngestBare(b *testing.B) {
	sum, err := core.NewSummary(core.Config{
		W: 32, Levels: 6, Transform: core.TransformSum, BoxCapacity: 64,
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum.Append(0, rng.Float64())
	}
}
