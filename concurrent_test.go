package stardust

import (
	"math/rand"
	"sync"
	"testing"

	"stardust/internal/gen"
)

// TestSafeWatcherConcurrentIngestAndQuery hammers a SafeWatcher from
// writer and reader goroutines; run with -race to exercise the locking.
func TestSafeWatcherConcurrentIngestAndQuery(t *testing.T) {
	sm, err := newSafeWatcher(Config{
		Streams: 4, W: 8, Levels: 3, Transform: Sum, BoxCapacity: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	const perStream = 2000
	var wg sync.WaitGroup
	// One writer per stream.
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(stream int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(stream)))
			data := gen.Burst(rng, perStream, 5, 20)
			for _, v := range data {
				// Errorf, not the Fatalf helper: this runs off the test
				// goroutine.
				if err := sm.Ingest(stream, v); err != nil {
					t.Errorf("ingest stream %d: %v", stream, err)
					return
				}
			}
		}(s)
	}
	// Two query readers racing the writers.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				stream := rng.Intn(4)
				if sm.Now(stream) < 32 {
					continue
				}
				res, err := sm.CheckAggregate(stream, 24, 400)
				if err != nil {
					t.Errorf("query error: %v", err)
					return
				}
				if res.Alarm && res.Exact < 400 {
					t.Error("inconsistent alarm")
					return
				}
			}
		}(int64(100 + r))
	}
	wg.Wait()
	for s := 0; s < 4; s++ {
		if sm.Now(s) != perStream-1 {
			t.Fatalf("stream %d time = %d", s, sm.Now(s))
		}
	}
	if sm.NumStreams() != 4 {
		t.Fatal("stream count wrong")
	}
}

// TestSafeWatcherDelegation checks every wrapped method against the plain
// monitor.
func TestSafeWatcherDelegation(t *testing.T) {
	cfg := Config{
		Streams: 2, W: 16, Levels: 3, Transform: DWT, Mode: Batch,
		Coefficients: 4, Normalization: NormZ,
	}
	sm, err := newSafeWatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	data := gen.CorrelatedWalks(rng, 2, 256, 2, 0.1)
	for i := 0; i < 256; i++ {
		vs := []float64{data[0][i], data[1][i]}
		mustIngestAll(t, sm, vs)
		mustIngestAll(t, plain, vs)
	}
	a, err := sm.Correlations(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := plain.Correlations(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pairs) != len(b.Pairs) {
		t.Fatalf("pairs %d vs %d", len(a.Pairs), len(b.Pairs))
	}
	la, err := sm.LaggedCorrelations(2, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := plain.LaggedCorrelations(2, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(la) != len(lb) {
		t.Fatalf("lagged %d vs %d", len(la), len(lb))
	}
	if _, err := newSafeWatcher(Config{}); err == nil {
		t.Fatal("invalid config should fail")
	}
}
