package stardust

import (
	"errors"
	"math"
	"testing"
)

func newSumMonitor(t *testing.T, cfg Config) *Monitor {
	t.Helper()
	if cfg.Streams == 0 {
		cfg.Streams = 2
	}
	if cfg.W == 0 {
		cfg.W, cfg.Levels = 8, 3
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestIngestRejectPolicy(t *testing.T) {
	m := newSumMonitor(t, Config{})
	if err := m.Ingest(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Ingest(0, math.NaN()); !errors.Is(err, ErrBadValue) {
		t.Fatalf("NaN err = %v, want ErrBadValue", err)
	}
	if err := m.Ingest(0, math.Inf(1)); !errors.Is(err, ErrBadValue) {
		t.Fatalf("+Inf err = %v, want ErrBadValue", err)
	}
	// Rejected samples do not advance the stream clock.
	if m.Now(0) != 0 {
		t.Fatalf("clock advanced to %d on rejected samples", m.Now(0))
	}
	if err := m.Ingest(5, 1); !errors.Is(err, ErrStreamRange) {
		t.Fatalf("out-of-range err = %v, want ErrStreamRange", err)
	}
	st := m.Stats()
	if st.Ingest.Accepted != 1 || st.Ingest.Rejected != 2 {
		t.Fatalf("ingest stats = %+v", st.Ingest)
	}
}

func TestIngestClampPolicy(t *testing.T) {
	m := newSumMonitor(t, Config{
		BadValues: GuardConfig{Policy: ClampBad, ClampMin: 0, ClampMax: 100},
	})
	for _, v := range []float64{50, math.Inf(1), math.Inf(-1), 300} {
		if err := m.Ingest(0, v); err != nil {
			t.Fatalf("Ingest(%v): %v", v, err)
		}
	}
	if m.Now(0) != 3 {
		t.Fatalf("clock = %d, want 3", m.Now(0))
	}
	// 50 + 100 + 0 + 100 over the last 4 values once window fills; verify
	// through the exact aggregate after filling the window.
	for i := 0; i < 4; i++ {
		if err := m.Ingest(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	exact, err := m.Summary().ExactAggregate(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if exact != 250 {
		t.Fatalf("clamped window sum = %v, want 250", exact)
	}
	if st := m.Stats(); st.Ingest.Repaired != 3 {
		t.Fatalf("repaired = %d, want 3", st.Ingest.Repaired)
	}
}

func TestIngestLastValuePolicy(t *testing.T) {
	m := newSumMonitor(t, Config{BadValues: GuardConfig{Policy: LastValueBad}})
	if err := m.Ingest(0, 9); err != nil {
		t.Fatal(err)
	}
	if err := m.Ingest(0, math.NaN()); err != nil {
		t.Fatalf("gap-fill failed: %v", err)
	}
	if m.Now(0) != 1 {
		t.Fatalf("clock = %d, want 1 (gap-filled)", m.Now(0))
	}
	// The other stream has no history: reject.
	if err := m.Ingest(1, math.NaN()); !errors.Is(err, ErrBadValue) {
		t.Fatalf("no-history gap-fill err = %v", err)
	}
}

func TestIngestQuarantine(t *testing.T) {
	m := newSumMonitor(t, Config{
		BadValues: GuardConfig{Policy: LastValueBad, QuarantineAfter: 3},
	})
	if err := m.Ingest(0, 1); err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := 0; i < 5; i++ {
		lastErr = m.Ingest(0, math.NaN())
	}
	if !errors.Is(lastErr, ErrQuarantined) {
		t.Fatalf("err after bad run = %v, want ErrQuarantined", lastErr)
	}
	if !m.Quarantined(0) || m.Quarantined(1) {
		t.Fatal("quarantine flags wrong")
	}
	st := m.Stats()
	if st.Ingest.QuarantinedStreams != 1 || st.Ingest.QuarantineTrips != 1 {
		t.Fatalf("stats = %+v", st.Ingest)
	}
	// Recovery on the next finite value.
	if err := m.Ingest(0, 2); err != nil {
		t.Fatal(err)
	}
	if m.Quarantined(0) {
		t.Fatal("quarantine survived a finite value")
	}
}

func TestIngestAllPartialFailure(t *testing.T) {
	m := newSumMonitor(t, Config{Streams: 3})
	if err := m.IngestAll([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// One bad stream: the other two still advance, the error names the
	// failure.
	err := m.IngestAll([]float64{4, math.NaN(), 6})
	if !errors.Is(err, ErrBadValue) {
		t.Fatalf("err = %v, want ErrBadValue", err)
	}
	if m.Now(0) != 1 || m.Now(1) != 0 || m.Now(2) != 1 {
		t.Fatalf("clocks = %d,%d,%d", m.Now(0), m.Now(1), m.Now(2))
	}
	// Length mismatch is a range error.
	if err := m.IngestAll([]float64{1}); !errors.Is(err, ErrStreamRange) {
		t.Fatalf("mismatch err = %v, want ErrStreamRange", err)
	}
}

func TestAddStreamGrowsGuard(t *testing.T) {
	m := newSumMonitor(t, Config{})
	id := m.AddStream()
	if err := m.Ingest(id, 1); err != nil {
		t.Fatalf("new stream rejected: %v", err)
	}
}

func TestSafeWatcherIngest(t *testing.T) {
	sm, err := newSafeWatcher(Config{Streams: 2, W: 8, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sm.Ingest(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := sm.Ingest(0, math.NaN()); !errors.Is(err, ErrBadValue) {
		t.Fatalf("err = %v", err)
	}
	if err := sm.IngestAll([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if st := sm.Stats(); st.Ingest.Accepted != 3 || st.Ingest.Rejected != 1 {
		t.Fatalf("stats = %+v", st.Ingest)
	}
}

func TestShardedIngestAndRangeErrors(t *testing.T) {
	sm, err := NewSharded(Config{Streams: 10, W: 8, Levels: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 10; s++ {
		if err := sm.Ingest(s, float64(s)); err != nil {
			t.Fatalf("stream %d: %v", s, err)
		}
	}
	// Out-of-range ids are typed errors, not process-killing panics.
	for _, s := range []int{-1, 10, 999} {
		if err := sm.Ingest(s, 1); !errors.Is(err, ErrStreamRange) {
			t.Fatalf("Ingest(%d) err = %v, want ErrStreamRange", s, err)
		}
	}
	if _, err := sm.CheckAggregate(99, 8, 1); !errors.Is(err, ErrStreamRange) {
		t.Fatalf("CheckAggregate range err = %v", err)
	}
	if err := sm.Ingest(3, math.NaN()); !errors.Is(err, ErrBadValue) {
		t.Fatalf("sharded bad value err = %v", err)
	}
	if err := sm.IngestAll(make([]float64, 9)); !errors.Is(err, ErrStreamRange) {
		t.Fatalf("IngestAll mismatch err = %v", err)
	}
}

func TestWatcherPushRejectsBadValues(t *testing.T) {
	m := newSumMonitor(t, Config{})
	w := NewWatcher(m)
	if _, err := w.WatchAggregate(0, 8, 100, true); err != nil {
		t.Fatal(err)
	}
	events, err := w.Push(0, math.NaN())
	if !errors.Is(err, ErrBadValue) {
		t.Fatalf("Push(NaN) err = %v, want ErrBadValue", err)
	}
	if len(events) != 0 {
		t.Fatalf("rejected push produced %d events", len(events))
	}
	if m.Now(0) != -1 {
		t.Fatalf("rejected push advanced clock to %d", m.Now(0))
	}
	if _, err := w.Push(0, 1); err != nil {
		t.Fatal(err)
	}
}
