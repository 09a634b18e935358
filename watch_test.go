package stardust

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"stardust/internal/gen"
	"stardust/internal/obs"
)

func newWatcher(t *testing.T, cfg Config) *Watcher {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewWatcher(m)
}

func TestWatchAggregateValidation(t *testing.T) {
	w := newWatcher(t, Config{Streams: 2, W: 4, Levels: 3, Transform: Sum})
	if _, err := w.WatchAggregate(5, 8, 10, true); err == nil {
		t.Fatal("bad stream should fail")
	}
	if _, err := w.WatchAggregate(0, 7, 10, true); err == nil {
		t.Fatal("un-decomposable window should fail")
	}
	id, err := w.WatchAggregate(0, 8, 10, true)
	if err != nil || id == 0 {
		t.Fatalf("valid watch failed: %v", err)
	}
}

// TestWatchAggregateEdgeTriggered: one alarm event per burst episode plus
// one cleared event, regardless of episode length.
func TestWatchAggregateEdgeTriggered(t *testing.T) {
	w := newWatcher(t, Config{Streams: 1, W: 4, Levels: 3, Transform: Sum, BoxCapacity: 2})
	id, err := w.WatchAggregate(0, 8, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	var alarms, cleared int
	push := func(v float64) {
		events, err := w.Push(0, v)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			if e.WatchID != id {
				t.Fatalf("event for unknown watch: %+v", e)
			}
			switch e.Kind {
			case EventAggregate:
				alarms++
				if e.Value < 100 {
					t.Fatalf("alarm below threshold: %+v", e)
				}
			case EventAggregateCleared:
				cleared++
			}
		}
	}
	for i := 0; i < 20; i++ {
		push(2) // quiet: window sum 16
	}
	for i := 0; i < 10; i++ {
		push(50) // burst: sums cross 100 quickly
	}
	for i := 0; i < 20; i++ {
		push(2) // quiet again
	}
	if alarms != 1 {
		t.Fatalf("edge-triggered alarms = %d, want 1", alarms)
	}
	if cleared != 1 {
		t.Fatalf("cleared events = %d, want 1", cleared)
	}
}

// TestWatchAggregateLevelTriggered: without edge triggering, every alarming
// step emits.
func TestWatchAggregateLevelTriggered(t *testing.T) {
	w := newWatcher(t, Config{Streams: 1, W: 4, Levels: 2, Transform: Sum})
	if _, err := w.WatchAggregate(0, 4, 100, false); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < 10; i++ {
		events, err := w.Push(0, 50) // every full window sums 200
		if err != nil {
			t.Fatal(err)
		}
		total += len(events)
	}
	// Windows complete from t=3 on: 7 alarming steps.
	if total != 7 {
		t.Fatalf("level-triggered events = %d, want 7", total)
	}
}

// TestWatchPatternReportsNewMatchesOnce: a planted pattern is reported when
// it completes, exactly once, with the right stream and end time.
func TestWatchPatternReportsNewMatchesOnce(t *testing.T) {
	w := newWatcher(t, Config{
		Streams: 2, W: 8, Levels: 3, Transform: DWT, Mode: Batch,
		Coefficients: 4, Normalization: NormUnit, Rmax: 150, History: 600,
	})
	rng := rand.New(rand.NewSource(271))
	data := gen.RandomWalks(rng, 2, 400)
	// The pattern: what stream 1 will trace at positions 200..239.
	pattern := make([]float64, 40)
	copy(pattern, data[1][200:240])
	id, err := w.WatchPattern(pattern, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	var hits []Event
	for i := 0; i < 400; i++ {
		for s := 0; s < 2; s++ {
			events, err := w.Push(s, data[s][i])
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range events {
				if e.Kind == EventPattern && e.WatchID == id {
					hits = append(hits, e)
				}
			}
		}
	}
	foundPlanted := false
	seen := map[[2]int64]int{}
	for _, h := range hits {
		if h.Stream == 1 && h.Time == 239 {
			foundPlanted = true
		}
		seen[[2]int64{int64(h.Stream), h.Time}]++
	}
	if !foundPlanted {
		t.Fatalf("planted pattern never reported; hits = %v", hits)
	}
	for k, n := range seen {
		if n > 1 {
			t.Fatalf("match %v reported %d times", k, n)
		}
	}
}

func TestWatchPatternValidation(t *testing.T) {
	w := newWatcher(t, Config{
		Streams: 1, W: 8, Levels: 2, Transform: DWT, Mode: Batch,
		Coefficients: 4, Normalization: NormUnit, Rmax: 10,
	})
	if _, err := w.WatchPattern(nil, 0.1); err == nil {
		t.Fatal("empty pattern should fail")
	}
	if _, err := w.WatchPattern(make([]float64, 32), 0); err == nil {
		t.Fatal("zero radius should fail")
	}
	if _, err := w.WatchPattern(make([]float64, 4), 0.1); err == nil {
		t.Fatal("too-short pattern should fail")
	}
}

func TestUnwatch(t *testing.T) {
	w := newWatcher(t, Config{Streams: 1, W: 4, Levels: 2, Transform: Sum})
	id, _ := w.WatchAggregate(0, 4, 10, true)
	if !w.Unwatch(id) {
		t.Fatal("unwatch failed")
	}
	if w.Unwatch(id) {
		t.Fatal("double unwatch should fail")
	}
	// No events after unwatching.
	for i := 0; i < 10; i++ {
		events, err := w.Push(0, 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(events) != 0 {
			t.Fatal("unwatched query still fired")
		}
	}
}

// TestWatchIDsNeverReused: a watch id retired by Unwatch must never be
// handed out again — consumers key alert state and spec attribution by
// id, so recycling one would silently re-route another watch's events.
func TestWatchIDsNeverReused(t *testing.T) {
	w := newWatcher(t, Config{Streams: 2, W: 4, Levels: 3, Transform: Sum})
	seen := make(map[int]bool)
	claim := func(id int) {
		t.Helper()
		if seen[id] {
			t.Fatalf("watch id %d issued twice", id)
		}
		seen[id] = true
	}
	var ids []int
	for i := 0; i < 5; i++ {
		id, err := w.WatchAggregate(i%2, 4, 10, true)
		if err != nil {
			t.Fatal(err)
		}
		claim(id)
		ids = append(ids, id)
	}
	for _, id := range ids {
		if !w.Unwatch(id) {
			t.Fatalf("unwatch %d failed", id)
		}
	}
	// Fresh installs after a full teardown still get fresh ids.
	for i := 0; i < 5; i++ {
		id, err := w.WatchAggregate(0, 8, 5, false)
		if err != nil {
			t.Fatal(err)
		}
		claim(id)
	}
}

// TestConcurrentPushAndUnwatch races producers against watch churn on a
// SafeWatcher: installs and unwatches interleave with pushes, which under
// -race pins the locking of the install/evaluate/retire paths.
func TestConcurrentPushAndUnwatch(t *testing.T) {
	m, err := New(Config{Streams: 4, W: 4, Levels: 3, Transform: Sum, BoxCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSafeWatcher(m)
	sw.SetEventSink(func([]Event) {})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			id, err := sw.WatchAggregate(i%4, 4, 5, i%2 == 0)
			if err != nil {
				t.Error(err)
				return
			}
			if !sw.Unwatch(id) {
				t.Errorf("unwatch %d failed", id)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(stream int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if err := sw.Ingest(stream, float64(i%7)); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	<-done
}

func TestEventKindString(t *testing.T) {
	for k, want := range map[EventKind]string{
		EventAggregate: "aggregate-alarm", EventAggregateCleared: "aggregate-cleared", EventPattern: "pattern-match",
	} {
		if k.String() != want {
			t.Errorf("%d prints %q", int(k), k.String())
		}
	}
	if EventKind(9).String() == "" {
		t.Error("unknown kind should still print")
	}
}

// TestSafeWatcherConcurrent hammers a SafeWatcher from parallel producers;
// run with -race.
func TestSafeWatcherConcurrent(t *testing.T) {
	m, err := New(Config{Streams: 4, W: 4, Levels: 3, Transform: Sum})
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSafeWatcher(m)
	for s := 0; s < 4; s++ {
		if _, err := sw.WatchAggregate(s, 8, 300, true); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan int, 4)
	for s := 0; s < 4; s++ {
		go func(stream int) {
			alarms := 0
			for i := 0; i < 500; i++ {
				v := 2.0
				if i >= 200 && i < 260 {
					v = 60
				}
				events, err := sw.Push(stream, v)
				if err != nil {
					t.Error(err)
					break
				}
				for _, e := range events {
					if e.Kind == EventAggregate {
						alarms++
					}
				}
			}
			done <- alarms
		}(s)
	}
	total := 0
	for s := 0; s < 4; s++ {
		total += <-done
	}
	if total != 4 {
		t.Fatalf("edge-triggered alarms = %d, want 4 (one per stream)", total)
	}
	if ok := sw.Unwatch(1); !ok {
		t.Fatal("unwatch failed")
	}
}

// TestPushPartialEventsOnError pins the Watcher.Push partial-event
// contract: when a standing query fails mid-evaluation, the events already
// triggered by this push are returned ALONGSIDE the error, and callers
// must consume them (they will not be re-delivered).
func TestPushPartialEventsOnError(t *testing.T) {
	// History 16 covers the largest level window but NOT the decomposable
	// window 24 (= 8 + 16), so a window-24 watch registers fine yet fails
	// exact verification once it becomes an alarm candidate.
	w := newWatcher(t, Config{Streams: 1, W: 8, Levels: 2, Transform: Sum, History: 16})
	if _, err := w.WatchAggregate(0, 8, 10, false); err != nil {
		t.Fatal(err)
	}
	if _, err := w.WatchAggregate(0, 24, 10, false); err != nil {
		t.Fatal(err)
	}
	var events []Event
	var pushErr error
	for i := 0; i < 30 && pushErr == nil; i++ {
		events, pushErr = w.Push(0, 50)
	}
	if pushErr == nil {
		t.Fatal("unverifiable watch never errored")
	}
	// The window-8 watch fired before the window-24 watch errored; its
	// event rides along with the error.
	if len(events) != 1 {
		t.Fatalf("got %d events alongside error %v, want 1", len(events), pushErr)
	}
	if events[0].Kind != EventAggregate || events[0].Stream != 0 {
		t.Fatalf("partial event = %+v", events[0])
	}
}

// TestSafeWatcherAppendAllPartialEvents pins the same contract one level
// up: a mid-loop ingestion error returns the events of earlier streams in
// the arrival and leaves later streams untouched.
func TestSafeWatcherAppendAllPartialEvents(t *testing.T) {
	m, err := New(Config{Streams: 3, W: 4, Levels: 2, Transform: Sum})
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSafeWatcher(m)
	if _, err := sw.WatchAggregate(0, 4, 100, false); err != nil {
		t.Fatal(err)
	}
	// Warm up so the stream-0 watch can fire.
	for i := 0; i < 4; i++ {
		if _, err := sw.AppendAll([]float64{50, 1, 1}); err != nil {
			t.Fatal(err)
		}
	}
	events, err := sw.AppendAll([]float64{50, math.NaN(), 1})
	if !errors.Is(err, ErrBadValue) {
		t.Fatalf("err = %v, want ErrBadValue", err)
	}
	if len(events) == 0 {
		t.Fatal("no partial events returned alongside the error")
	}
	if events[0].Stream != 0 {
		t.Fatalf("partial event stream = %d", events[0].Stream)
	}
	// Stream 0 advanced, stream 1 was rejected, stream 2 never pushed.
	if m.Now(0) != 4 || m.Now(1) != 3 || m.Now(2) != 3 {
		t.Fatalf("clocks = %d,%d,%d", m.Now(0), m.Now(1), m.Now(2))
	}
}

// TestWatchPatternReportsEachAlignmentOnce: a constant stream matches a
// constant pattern at every alignment, so the watch must report every
// alignment end exactly once, in order, over a run many times longer than
// the retained history — each alignment is examined on the tick that
// completes it, with no dedup state to grow or prune.
func TestWatchPatternReportsEachAlignmentOnce(t *testing.T) {
	const hist, n = 128, 2000
	w := newWatcher(t, Config{
		Streams: 1, W: 8, Levels: 3, Transform: DWT, Mode: Batch,
		Coefficients: 4, History: hist,
	})
	pattern := make([]float64, 16)
	for i := range pattern {
		pattern[i] = 1
	}
	if _, err := w.WatchPattern(pattern, 0.01); err != nil {
		t.Fatal(err)
	}
	want := int64(len(pattern) - 1)
	for i := 0; i < n; i++ {
		events, err := w.Push(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			if e.Kind != EventPattern || e.Time != want {
				t.Fatalf("event %+v, want a pattern match ending at %d", e, want)
			}
			want++
		}
	}
	if want != n {
		t.Fatalf("last reported end %d, want %d", want-1, n-1)
	}
}

// TestWatchCorrelationReportsPairsOnce: a standing correlation query
// reports correlated pairs as detection rounds run, each (pair, feature
// time) combination exactly once.
func TestWatchCorrelationReportsPairsOnce(t *testing.T) {
	w := newWatcher(t, Config{
		Streams: 4, W: 16, Levels: 3, Transform: DWT, Mode: Batch,
		Coefficients: 4, Normalization: NormZ,
	})
	id, err := w.WatchCorrelation(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	data := gen.CorrelatedWalks(rng, 4, 512, 2, 0.05)
	var hits []Event
	for i := 0; i < 512; i++ {
		for s := 0; s < 4; s++ {
			events, err := w.Push(s, data[s][i])
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range events {
				if e.Kind == EventCorrelation && e.WatchID == id {
					hits = append(hits, e)
				}
			}
		}
	}
	if len(hits) == 0 {
		t.Fatal("no correlation events for correlated walk groups")
	}
	seen := map[[4]int64]int{}
	for _, h := range hits {
		if h.Stream == h.StreamB {
			t.Fatalf("self-pair reported: %+v", h)
		}
		if math.Abs(h.Value) > 1 {
			t.Fatalf("correlation coefficient out of range: %+v", h)
		}
		seen[[4]int64{int64(h.Stream), int64(h.StreamB), h.Time, h.TimeB}]++
	}
	for k, n := range seen {
		if n > 1 {
			t.Fatalf("pair %v reported %d times", k, n)
		}
	}
}

// TestWatchCorrelationStalledPairOnce: a pair whose two streams have both
// stalled is delivered once, however long a third stream keeps ticking.
// (A global-round evaluator re-reported it on every tick once its dedup
// key fell behind the pruning horizon: 17 times over this run.)
func TestWatchCorrelationStalledPairOnce(t *testing.T) {
	w := newWatcher(t, Config{
		Streams: 3, W: 16, Levels: 3, Transform: DWT, Mode: Batch,
		Coefficients: 4, Normalization: NormZ,
	})
	if _, err := w.WatchCorrelation(2, 0.5); err != nil {
		t.Fatal(err)
	}
	data := gen.CorrelatedWalks(rand.New(rand.NewSource(5)), 3, 400, 2, 0.05)
	delivered := 0
	for i := 0; i < 400; i++ {
		for s := 0; s < 3; s++ {
			if i > 63 && s < 2 {
				continue
			}
			events, err := w.Push(s, data[s][i])
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range events {
				if e.Stream == 0 && e.StreamB == 1 && e.Time == 63 && e.TimeB == 63 {
					delivered++
				}
			}
		}
	}
	if delivered != 1 {
		t.Fatalf("pair (0, 1, 63, 63) delivered %d times, want 1", delivered)
	}
}

func TestWatchCorrelationValidation(t *testing.T) {
	w := newWatcher(t, Config{
		Streams: 2, W: 16, Levels: 3, Transform: DWT, Mode: Batch,
		Coefficients: 4, Normalization: NormZ,
	})
	if _, err := w.WatchCorrelation(0, 0); err == nil {
		t.Fatal("zero radius should fail")
	}
	if _, err := w.WatchCorrelation(99, 0.5); err == nil {
		t.Fatal("bad level should fail")
	}
	id, err := w.WatchCorrelation(1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Unwatch(id) {
		t.Fatal("Unwatch failed to find the correlation watch")
	}
}

// TestBootstrapReplicaKeepsWatchGauges: the installed watches survive a
// replica bootstrap's monitor swap, and so must the active-watch gauges
// that count them. Aggregate watches need a SUM summary and pattern and
// correlation watches a DWT one, so the kinds are installed on two
// followers.
func TestBootstrapReplicaKeepsWatchGauges(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		install func(*SafeWatcher) error
	}{
		{"aggregate", Config{Streams: 2, W: 8, Levels: 3, Transform: Sum}, func(sw *SafeWatcher) error {
			_, err := sw.WatchAggregate(0, 8, 100, true)
			return err
		}},
		{"pattern+correlation", Config{
			Streams: 2, W: 8, Levels: 3, Transform: DWT, Mode: Batch,
			Coefficients: 4, Normalization: NormZ, History: 256,
		}, func(sw *SafeWatcher) error {
			if _, err := sw.WatchPattern(make([]float64, 16), 1); err != nil {
				return err
			}
			_, err := sw.WatchCorrelation(1, 2)
			return err
		}},
	}
	var aggs, patterns, corrs int64
	for _, tc := range cases {
		primary, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		data := gen.RandomWalks(rand.New(rand.NewSource(3)), tc.cfg.Streams, 64)
		for s := range data {
			if err := primary.IngestBatch(s, data[s]); err != nil {
				t.Fatal(err)
			}
		}
		var snap bytes.Buffer
		if err := primary.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}

		follower, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		sw := NewSafeWatcher(follower)
		if err := tc.install(sw); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		before := sw.Metrics().Watch
		if err := sw.BootstrapReplica(&snap); err != nil {
			t.Fatal(err)
		}
		after := sw.Metrics().Watch
		gauges := func(w obs.WatchSnapshot) [3]int64 {
			return [3]int64{w.ActiveAggregate, w.ActivePattern, w.ActiveCorrelation}
		}
		if got, want := gauges(after), gauges(before); got != want {
			t.Fatalf("%s: active gauges (aggregate, pattern, correlation) %v after bootstrap, want %v", tc.name, got, want)
		}
		aggs += after.ActiveAggregate
		patterns += after.ActivePattern
		corrs += after.ActiveCorrelation
	}
	if aggs != 1 || patterns != 1 || corrs != 1 {
		t.Fatalf("active gauges after bootstrap: %d aggregate, %d pattern, %d correlation; want one of each", aggs, patterns, corrs)
	}
}
