package stardust_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"stardust"
	"stardust/internal/cluster"
	"stardust/internal/gen"
	"stardust/internal/server"
	"stardust/internal/transport"
)

// The sharded↔single parity suite. Stardust scales out by partitioning
// streams across stardust-server processes behind stardust-router; these
// tests run that deployment in-process — full-width SafeWatcher backends
// serving HTTP and the binary wire protocol, fronted by the router's
// internal/cluster coordinator — and check that it answers like one
// Monitor fed the same samples. Byte-level parity of every query class
// over the router's HTTP surface is internal/cluster's
// TestClusterE2EByteParity.

// startSharded serves shards backends for cfg and returns the coordinator
// that partitions cfg.Streams across them.
func startSharded(t *testing.T, cfg stardust.Config, shards int) *cluster.Cluster {
	t.Helper()
	shardCfgs := make([]cluster.ShardConfig, shards)
	for i := range shardCfgs {
		mon, err := stardust.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sw := stardust.NewSafeWatcher(mon)
		hts := httptest.NewServer(server.New(sw))
		t.Cleanup(hts.Close)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ts := transport.NewServer(transport.Config{Backend: sw, MaxConns: 16})
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = ts.Serve(ctx, ln)
		}()
		t.Cleanup(func() { cancel(); <-done })
		shardCfgs[i] = cluster.ShardConfig{Name: fmt.Sprintf("shard-%d", i), HTTP: hts.URL, TCP: ln.Addr().String()}
	}
	cl, err := cluster.New(cluster.Config{Shards: shardCfgs, Streams: cfg.Streams, ShardTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// shardedPair builds a sharded deployment and a single monitor over the
// same config and feeds both the same random walks.
func shardedPair(t *testing.T, cfg stardust.Config, shards, n int, seed int64) (*cluster.Cluster, *stardust.Monitor, [][]float64) {
	t.Helper()
	cl := startSharded(t, cfg, shards)
	single, err := stardust.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := gen.RandomWalks(rand.New(rand.NewSource(seed)), cfg.Streams, n)
	for s := 0; s < cfg.Streams; s++ {
		if err := cl.IngestBatch(s, data[s]); err != nil {
			t.Fatal(err)
		}
		if err := single.IngestBatch(s, data[s]); err != nil {
			t.Fatal(err)
		}
	}
	return cl, single, data
}

// TestShardedMatchesSingle: a sharded deployment must answer pattern
// queries exactly like a single monitor, in global stream ids.
func TestShardedMatchesSingle(t *testing.T) {
	cfg := stardust.Config{
		Streams: 6, W: 16, Levels: 3, Transform: stardust.DWT, Mode: stardust.Batch,
		Coefficients: 4, Normalization: stardust.NormUnit, Rmax: 150, History: 512,
	}
	sm, single, data := shardedPair(t, cfg, 3, 400, 251)
	for s := 0; s < cfg.Streams; s++ {
		if sm.Now(s) != single.Now(s) {
			t.Fatalf("stream %d time mismatch", s)
		}
	}
	q := make([]float64, 48)
	copy(q, data[4][300:348])
	a, err := sm.FindPattern(q, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	b, err := single.FindPattern(q, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Matches) != len(b.Matches) {
		t.Fatalf("matches %d vs %d", len(a.Matches), len(b.Matches))
	}
	for i := range a.Matches {
		if a.Matches[i].Stream != b.Matches[i].Stream || a.Matches[i].End != b.Matches[i].End {
			t.Fatalf("match %d: %+v vs %+v", i, a.Matches[i], b.Matches[i])
		}
	}
	found := false
	for _, m := range a.Matches {
		if m.Stream == 4 && m.End == 347 {
			found = true
		}
	}
	if !found {
		t.Fatal("planted match missing")
	}
}

// TestShardedAggregate: checks route to the owning shard with global ids.
func TestShardedAggregate(t *testing.T) {
	cfg := stardust.Config{Streams: 5, W: 4, Levels: 3, Transform: stardust.Sum}
	sm := startSharded(t, cfg, 2)
	for s := 0; s < cfg.Streams; s++ {
		vs := make([]float64, 50)
		for i := range vs {
			vs[i] = float64(s + 1) // stream s gets constant s+1
		}
		if err := sm.IngestBatch(s, vs); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < cfg.Streams; s++ {
		res, err := sm.CheckAggregate(s, 12, 1e9)
		if err != nil {
			t.Fatal(err)
		}
		want := float64((s + 1) * 12)
		if res.Bound.Lo != want || res.Bound.Hi != want {
			t.Fatalf("stream %d bound [%g, %g], want %g", s, res.Bound.Lo, res.Bound.Hi, want)
		}
	}
	if err := sm.Ingest(9, 1); !errors.Is(err, stardust.ErrStreamRange) {
		t.Fatalf("out-of-range ingest err = %v, want ErrStreamRange", err)
	}
}

// TestShardedConcurrentIngest drives every shard from parallel writers
// through one coordinator; run with -race.
func TestShardedConcurrentIngest(t *testing.T) {
	cfg := stardust.Config{Streams: 8, W: 8, Levels: 3, Transform: stardust.Sum}
	sm := startSharded(t, cfg, 4)
	var wg sync.WaitGroup
	for s := 0; s < cfg.Streams; s++ {
		wg.Add(1)
		go func(stream int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(stream)))
			for i := 0; i < 1000; i++ {
				// Errorf, not Fatalf: this runs off the test goroutine.
				if err := sm.Ingest(stream, rng.Float64()); err != nil {
					t.Errorf("ingest stream %d: %v", stream, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	st := sm.Stats()
	if st.Streams != cfg.Streams {
		t.Fatalf("stats streams = %d", st.Streams)
	}
	if st.RawHistory == 0 || st.TotalBoxes() == 0 {
		t.Fatal("stats should reflect ingested data")
	}
	for s := 0; s < cfg.Streams; s++ {
		if sm.Now(s) != 999 {
			t.Fatalf("stream %d time = %d", s, sm.Now(s))
		}
	}
}

// TestShardedIngestAndRangeErrors: out-of-range ids and inadmissible
// values come back through the coordinator as the same typed errors a
// single monitor returns.
func TestShardedIngestAndRangeErrors(t *testing.T) {
	sm := startSharded(t, stardust.Config{Streams: 10, W: 8, Levels: 3}, 4)
	for s := 0; s < 10; s++ {
		if err := sm.Ingest(s, float64(s)); err != nil {
			t.Fatalf("stream %d: %v", s, err)
		}
	}
	for _, s := range []int{-1, 10, 999} {
		if err := sm.Ingest(s, 1); !errors.Is(err, stardust.ErrStreamRange) {
			t.Fatalf("Ingest(%d) err = %v, want ErrStreamRange", s, err)
		}
	}
	if _, err := sm.CheckAggregate(99, 8, 1); !errors.Is(err, stardust.ErrStreamRange) {
		t.Fatalf("CheckAggregate range err = %v", err)
	}
	if err := sm.Ingest(3, math.NaN()); !errors.Is(err, stardust.ErrBadValue) {
		t.Fatalf("sharded bad value err = %v", err)
	}
	if err := sm.IngestAll(make([]float64, 9)); !errors.Is(err, stardust.ErrStreamRange) {
		t.Fatalf("IngestAll mismatch err = %v", err)
	}
	if err := sm.IngestBatch(-1, []float64{1, 2}); !errors.Is(err, stardust.ErrStreamRange) {
		t.Fatalf("IngestBatch(-1) err = %v, want ErrStreamRange", err)
	}
	if err := sm.IngestBatch(0, nil); err != nil {
		t.Fatalf("empty batch must be a no-op, got %v", err)
	}
}

// TestShardedCorrelationsParity: the cross-shard merge must recover the
// verified pairs a single monitor reports on a NormZ workload, here with
// more streams and shards than the byte-parity suite uses.
func TestShardedCorrelationsParity(t *testing.T) {
	cfg := stardust.Config{
		Streams: 12, W: 16, Levels: 3, Transform: stardust.DWT, Mode: stardust.Batch,
		Coefficients: 4, Normalization: stardust.NormZ, History: 512,
	}
	sm, single, _ := shardedPair(t, cfg, 4, 400, 99)

	const r = 4.0
	want, err := single.Correlations(1, r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sm.Correlations(1, r)
	if err != nil {
		t.Fatal(err)
	}
	key := func(p stardust.CorrPair) [3]int64 { return [3]int64{int64(p.A), int64(p.B), p.TimeB} }
	wantKeys := make(map[[3]int64]float64, len(want.Pairs))
	for _, p := range want.Pairs {
		wantKeys[key(p)] = p.Dist
	}
	gotKeys := make(map[[3]int64]float64, len(got.Pairs))
	cross := 0
	for _, p := range got.Pairs {
		gotKeys[key(p)] = p.Dist
		if sm.Owner(p.A) != sm.Owner(p.B) {
			cross++
		}
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
	if cross == 0 {
		t.Fatal("no verified pair spans two shards; the cross-shard phase went unchecked")
	}
	if int64(len(got.Candidates)) < int64(len(got.Pairs)) {
		t.Fatalf("candidates %d < verified %d", len(got.Candidates), len(got.Pairs))
	}
}

// TestShardedNearestPatternsParity: global k-NN over shards matches the
// single-monitor ranking.
func TestShardedNearestPatternsParity(t *testing.T) {
	cfg := stardust.Config{
		Streams: 6, W: 16, Levels: 3, Transform: stardust.DWT, Mode: stardust.Batch,
		Coefficients: 4, Normalization: stardust.NormUnit, Rmax: 150, History: 512,
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

// TestShardedMetricsMerge: the coordinator's metrics snapshot is the sum
// of the shard snapshots.
func TestShardedMetricsMerge(t *testing.T) {
	cfg := stardust.Config{
		Streams: 4, W: 8, Levels: 3, Transform: stardust.DWT, Mode: stardust.Batch,
		Normalization: stardust.NormZ,
	}
	sm, _, _ := shardedPair(t, cfg, 2, 300, 5)
	snap := sm.Metrics()
	if snap.Ingest.Samples != 4*300 {
		t.Fatalf("merged samples = %d, want %d", snap.Ingest.Samples, 4*300)
	}
	if snap.Tree.Inserts == 0 {
		t.Fatal("merged snapshot lost index counters")
	}
}
