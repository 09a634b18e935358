package stardust

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"stardust/internal/core"
	"stardust/internal/gen"
)

// TestMonitorMetricsIngest: the ingest counters track exactly what the
// guard admitted, and the index counters observe the resulting inserts.
func TestMonitorMetricsIngest(t *testing.T) {
	m, err := New(Config{Streams: 2, W: 8, Levels: 3, Transform: Sum, BoxCapacity: 2})
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

// shardedPair builds a sharded and a single monitor over the same config
// and feeds both the same data.
func shardedPair(t *testing.T, cfg Config, shards, n int, seed int64) (*ShardedMonitor, *Monitor, [][]float64) {
	t.Helper()
	sm, err := NewSharded(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	single, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	data := gen.RandomWalks(rng, cfg.Streams, n)
	for i := 0; i < n; i++ {
		for s := 0; s < cfg.Streams; s++ {
			if err := sm.Ingest(s, data[s][i]); err != nil {
				t.Fatal(err)
			}
			if err := single.Ingest(s, data[s][i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sm, single, data
}

// TestShardedCorrelationsParity: the cross-shard merge must recover the
// verified pairs a single monitor reports on the same NormZ workload.
func TestShardedCorrelationsParity(t *testing.T) {
	cfg := Config{
		Streams: 6, W: 16, Levels: 3, Transform: DWT, Mode: Batch,
		Coefficients: 4, Normalization: NormZ, History: 512,
	}
	sm, single, _ := shardedPair(t, cfg, 3, 400, 99)

	const r = 4.0
	want, err := single.Correlations(1, r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sm.Correlations(1, r)
	if err != nil {
		t.Fatal(err)
	}
	key := func(p CorrPair) [3]int64 { return [3]int64{int64(p.A), int64(p.B), p.TimeB} }
	wantKeys := make(map[[3]int64]float64, len(want.Pairs))
	for _, p := range want.Pairs {
		wantKeys[key(p)] = p.Dist
	}
	gotKeys := make(map[[3]int64]float64, len(got.Pairs))
	for _, p := range got.Pairs {
		gotKeys[key(p)] = p.Dist
	}
	for k, d := range wantKeys {
		gd, ok := gotKeys[k]
		if !ok {
			t.Errorf("sharded missed verified pair %v", k)
			continue
		}
		if math.Abs(gd-d) > 1e-9 {
			t.Errorf("pair %v dist %g != %g", k, gd, d)
		}
	}
	for k := range gotKeys {
		if _, ok := wantKeys[k]; !ok {
			t.Errorf("sharded reported extra pair %v", k)
		}
	}
	// Screening may differ slightly across shard boundaries but must never
	// drop below the verified set.
	if int64(len(got.Candidates)) < int64(len(got.Pairs)) {
		t.Fatalf("candidates %d < verified %d", len(got.Candidates), len(got.Pairs))
	}
}

// TestShardedNearestPatternsParity: global k-NN over shards matches the
// single-monitor ranking.
func TestShardedNearestPatternsParity(t *testing.T) {
	cfg := Config{
		Streams: 6, W: 16, Levels: 3, Transform: DWT, Mode: Batch,
		Coefficients: 4, Normalization: NormUnit, Rmax: 150, History: 512,
	}
	sm, single, data := shardedPair(t, cfg, 3, 400, 13)
	q := make([]float64, 48)
	copy(q, data[4][300:348])

	const k = 5
	want, err := single.NearestPatterns(q, k)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sm.NearestPatterns(q, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d matches, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("match %d dist %g != %g", i, got[i].Dist, want[i].Dist)
		}
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Dist < got[j].Dist }) {
		t.Fatal("sharded matches not sorted by distance")
	}
}

// TestShardedAggregateBound: bounds route to the owning shard.
func TestShardedAggregateBound(t *testing.T) {
	cfg := Config{Streams: 5, W: 8, Levels: 3, Transform: Sum, BoxCapacity: 2}
	sm, single, _ := shardedPair(t, cfg, 2, 200, 7)
	for s := 0; s < cfg.Streams; s++ {
		want, err := single.AggregateBound(s, 16)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sm.AggregateBound(s, 16)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("stream %d bound %+v != %+v", s, got, want)
		}
	}
	if _, err := sm.AggregateBound(99, 16); err == nil {
		t.Fatal("out-of-range stream should fail")
	}
}

// TestShardedSnapshotRoundtrip: the SDSH container restores every shard
// and preserves query behavior.
func TestShardedSnapshotRoundtrip(t *testing.T) {
	cfg := Config{Streams: 5, W: 8, Levels: 3, Transform: Sum, BoxCapacity: 2, History: 256}
	sm, _, _ := shardedPair(t, cfg, 2, 200, 21)

	var buf bytes.Buffer
	if err := sm.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSharded(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumStreams() != sm.NumStreams() || back.NumShards() != sm.NumShards() {
		t.Fatalf("restored %d streams/%d shards, want %d/%d",
			back.NumStreams(), back.NumShards(), sm.NumStreams(), sm.NumShards())
	}
	for s := 0; s < cfg.Streams; s++ {
		if back.Now(s) != sm.Now(s) {
			t.Fatalf("stream %d time %d != %d", s, back.Now(s), sm.Now(s))
		}
		want, err := sm.AggregateBound(s, 16)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.AggregateBound(s, 16)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("stream %d bound drift after restore: %+v != %+v", s, got, want)
		}
	}

	if _, err := LoadSharded(bytes.NewReader(buf.Bytes()[:8])); err == nil {
		t.Fatal("truncated container should fail")
	}
	corrupt := append([]byte(nil), buf.Bytes()...)
	corrupt[0] = 'X'
	if _, err := LoadSharded(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("bad magic should fail")
	}
}

// TestShardedMetricsMerge: the sharded snapshot is the sum of the shard
// snapshots.
func TestShardedMetricsMerge(t *testing.T) {
	cfg := Config{Streams: 4, W: 8, Levels: 3, Transform: Sum, BoxCapacity: 2}
	sm, _, _ := shardedPair(t, cfg, 2, 300, 5)
	snap := sm.Metrics()
	if snap.Ingest.Samples != 4*300 {
		t.Fatalf("merged samples = %d, want %d", snap.Ingest.Samples, 4*300)
	}
	if snap.Tree.Inserts == 0 {
		t.Fatal("merged snapshot lost index counters")
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
