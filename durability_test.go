package stardust

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"stardust/internal/wal"
)

func durableCfg(dir string) Config {
	return Config{
		Streams: 3, W: 8, Levels: 3, Transform: Sum, Mode: Online, BoxCapacity: 4,
		Durability: DurabilityConfig{Dir: dir, Fsync: FsyncNone},
	}
}

// expectMonitor builds the WAL-free reference configuration.
func withoutWAL(cfg Config) Config {
	cfg.Durability = DurabilityConfig{}
	return cfg
}

// assertSameState checks that two monitors are observably identical:
// clocks, retained raw history, summary box population and certified
// aggregate bounds at every level window.
func assertSameState(t *testing.T, got, want *Monitor) {
	t.Helper()
	if got.NumStreams() != want.NumStreams() {
		t.Fatalf("NumStreams = %d, want %d", got.NumStreams(), want.NumStreams())
	}
	cfg := want.Summary().Config()
	for s := 0; s < want.NumStreams(); s++ {
		if g, w := got.Now(s), want.Now(s); g != w {
			t.Fatalf("stream %d: Now = %d, want %d", s, g, w)
		}
		wh := want.Summary().History(s)
		gh := got.Summary().History(s)
		if g, w := gh.OldestTime(), wh.OldestTime(); g != w {
			t.Fatalf("stream %d: OldestTime = %d, want %d", s, g, w)
		}
		if want.Now(s) >= 0 {
			wr, err := wh.Range(wh.OldestTime(), want.Now(s))
			if err != nil {
				t.Fatalf("stream %d: reference Range: %v", s, err)
			}
			gr, err := gh.Range(gh.OldestTime(), got.Now(s))
			if err != nil {
				t.Fatalf("stream %d: recovered Range: %v", s, err)
			}
			if len(gr) != len(wr) {
				t.Fatalf("stream %d: history length %d, want %d", s, len(gr), len(wr))
			}
			for i := range wr {
				if gr[i] != wr[i] {
					t.Fatalf("stream %d: history[%d] = %v, want %v", s, i, gr[i], wr[i])
				}
			}
		}
		for lvl := 0; lvl < cfg.Levels; lvl++ {
			win := cfg.LevelWindow(lvl)
			wb, werr := want.AggregateBound(s, win)
			gb, gerr := got.AggregateBound(s, win)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("stream %d window %d: bound err %v vs %v", s, win, gerr, werr)
			}
			if werr == nil && (math.Abs(gb.Lo-wb.Lo) > 1e-9 || math.Abs(gb.Hi-wb.Hi) > 1e-9) {
				t.Fatalf("stream %d window %d: bound [%v,%v], want [%v,%v]", s, win, gb.Lo, gb.Hi, wb.Lo, wb.Hi)
			}
		}
	}
	ws, gs := want.Stats(), got.Stats()
	for lvl := range ws.Levels {
		if gs.Levels[lvl].ThreadBoxes != ws.Levels[lvl].ThreadBoxes {
			t.Fatalf("level %d: ThreadBoxes = %d, want %d", lvl, gs.Levels[lvl].ThreadBoxes, ws.Levels[lvl].ThreadBoxes)
		}
	}
}

func TestRecoverFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(filepath.Join(dir, "wal"))

	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(withoutWAL(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		for s := 0; s < cfg.Streams; s++ {
			v := float64(i*7+s) * 0.5
			if err := m.Ingest(s, v); err != nil {
				t.Fatal(err)
			}
			if err := want.Ingest(s, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Crash: no Close, no snapshot. FsyncNone still leaves the records in
	// the (process-visible) file.
	got, stats, err := Recover(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if stats.Records == 0 || stats.Samples != int64(100*cfg.Streams) {
		t.Fatalf("replay stats = %+v, want %d samples", stats, 100*cfg.Streams)
	}
	assertSameState(t, got, want)

	// The recovered monitor keeps logging: new ingestion must survive the
	// next recovery too.
	if err := got.IngestBatch(0, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := want.IngestBatch(0, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := got.Close(); err != nil {
		t.Fatal(err)
	}
	again, _, err := Recover(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	assertSameState(t, again, want)
}

func TestRecoverSnapshotPlusWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(filepath.Join(dir, "wal"))
	snap := filepath.Join(dir, "state.snap")

	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(withoutWAL(cfg))
	if err != nil {
		t.Fatal(err)
	}
	feed := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for s := 0; s < cfg.Streams; s++ {
				v := math.Sin(float64(i)) + float64(s)
				if err := m.Ingest(s, v); err != nil {
					t.Fatal(err)
				}
				if err := want.Ingest(s, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	feed(0, 60)
	// Checkpoint: snapshot + trim. Everything before this lives only in
	// the snapshot; everything after only in the WAL.
	if err := m.Checkpoint(snap); err != nil {
		t.Fatal(err)
	}
	feed(60, 90)
	// Crash without Close.
	got, stats, err := Recover(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	// Replay must skip snapshot-covered samples and apply only the tail —
	// never fewer than the 30 post-checkpoint arrivals per stream.
	if applied := stats.Samples; applied < int64(30*cfg.Streams) {
		t.Fatalf("replay applied %d samples, want >= %d", applied, 30*cfg.Streams)
	}
	assertSameState(t, got, want)
}

func TestNewRefusesExistingWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(filepath.Join(dir, "wal"))
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Ingest(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("New on a WAL directory with records succeeded, want refusal")
	}
	// Recover is the sanctioned path and must succeed.
	got, _, err := Recover(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	got.Close()
}

func TestCheckpointTrimsSegments(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(filepath.Join(dir, "wal"))
	cfg.Durability.SegmentBytes = 64 // rotate every couple of records
	snap := filepath.Join(dir, "state.snap")

	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 200; i++ {
		if err := m.Ingest(i%cfg.Streams, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := m.Metrics().WAL.SegmentsLive
	if before < 10 {
		t.Fatalf("SegmentsLive = %d before checkpoint, want many (rotation not exercised)", before)
	}
	if err := m.Checkpoint(snap); err != nil {
		t.Fatal(err)
	}
	snapW := m.Metrics().WAL
	if snapW.SegmentsTrimmed == 0 {
		t.Fatal("Checkpoint trimmed no segments")
	}
	if snapW.SegmentsLive != 1 {
		t.Fatalf("SegmentsLive = %d after checkpoint, want 1", snapW.SegmentsLive)
	}
}

func TestIngestAfterCloseFails(t *testing.T) {
	cfg := durableCfg(filepath.Join(t.TempDir(), "wal"))
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	err = m.Ingest(0, 1)
	if !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("Ingest after Close = %v, want wal.ErrClosed", err)
	}
}

// TestWatcherIngestBatchOneWALRecord: a watcher's batch of admissible
// samples is one WAL record even with watches installed on the stream
// (evaluation still runs after every sample), and Recover over that log
// reproduces the live state byte for byte.
func TestWatcherIngestBatchOneWALRecord(t *testing.T) {
	cfg := durableCfg(t.TempDir())
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSafeWatcher(m)
	if _, err := sw.WatchAggregate(0, 8, 30, true); err != nil {
		t.Fatal(err)
	}
	var events []Event
	sw.SetEventSink(func(evs []Event) { events = append(events, evs...) })
	for round := 0; round < 6; round++ {
		vs := make([]float64, 16)
		for i := range vs {
			vs[i] = float64((round*16 + i) % 9)
		}
		before := m.WAL().LastLSN()
		if err := sw.IngestBatch(0, vs); err != nil {
			t.Fatal(err)
		}
		if got := m.WAL().LastLSN() - before; got != 1 {
			t.Fatalf("round %d: a %d-sample batch wrote %d WAL records, want 1", round, len(vs), got)
		}
	}
	if len(events) == 0 {
		t.Fatal("the watch never fired: evaluation did not run on the batched samples")
	}
	var want bytes.Buffer
	if err := sw.Snapshot(&want); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close.
	rec, stats, err := Recover(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if stats.Records != 6 {
		t.Fatalf("replayed %d records, want 6 (one per batch)", stats.Records)
	}
	var got bytes.Buffer
	if err := rec.Snapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("recovered snapshot differs from the live one")
	}
}
