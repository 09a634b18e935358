package stardust

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// TestCrashMatrix kills durable ingestion at random byte offsets in the
// write-ahead log — including offsets landing mid-record, the torn-write
// case — and asserts that snapshot + WAL replay reconstructs EXACTLY the
// state an uninterrupted monitor reaches over the surviving sample
// prefix. Ingestion runs concurrently (one goroutine per stream group)
// so the matrix also exercises the locking under -race.
func TestCrashMatrix(t *testing.T) {
	const (
		trials   = 12
		arrivals = 120
	)
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			dir := t.TempDir()
			cfg := Config{
				Streams: 4, W: 8, Levels: 3, Transform: Sum, Mode: Online, BoxCapacity: 4,
				Durability: DurabilityConfig{Dir: filepath.Join(dir, "wal"), Fsync: FsyncNone},
			}
			snap := filepath.Join(dir, "state.snap")

			// Deterministic per-stream sample sequences.
			series := make([][]float64, cfg.Streams)
			for s := range series {
				series[s] = make([]float64, arrivals)
				for i := range series[s] {
					series[s][i] = math.Sin(float64(i)*0.3+float64(s)) * 10
				}
			}

			sm, err := newSafeWatcher(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// First phase: half the arrivals, concurrently (two goroutines,
			// each owning two streams; per-stream order stays deterministic).
			ingestRange := func(lo, hi int) {
				var wg sync.WaitGroup
				for g := 0; g < 2; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for s := 2 * g; s < 2*g+2; s++ {
							if err := sm.IngestBatch(s, series[s][lo:hi]); err != nil {
								t.Errorf("IngestBatch stream %d: %v", s, err)
							}
						}
					}(g)
				}
				wg.Wait()
			}
			ingestRange(0, arrivals/2)
			withSnapshot := trial%2 == 0
			if withSnapshot {
				if err := sm.Checkpoint(snap); err != nil {
					t.Fatal(err)
				}
			} else {
				snap = ""
			}
			ingestRange(arrivals/2, arrivals)

			// Crash: no Close. Then lose a random tail of the final segment
			// — any byte offset, so the cut usually lands inside a frame.
			segs, err := filepath.Glob(filepath.Join(cfg.Durability.Dir, "wal-*.seg"))
			if err != nil || len(segs) == 0 {
				t.Fatalf("no segments: %v", err)
			}
			sort.Strings(segs)
			last := segs[len(segs)-1]
			fi, err := os.Stat(last)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() > 0 {
				cut := rng.Int63n(fi.Size() + 1)
				if err := os.Truncate(last, cut); err != nil {
					t.Fatal(err)
				}
			}

			got, stats, err := Recover(cfg, snap)
			if err != nil {
				t.Fatal(err)
			}
			defer got.Close()

			// The durability floor: nothing the snapshot covered is lost,
			// and each stream's clock never exceeds what was ingested.
			for s := 0; s < cfg.Streams; s++ {
				now := got.Now(s)
				if withSnapshot && now < int64(arrivals/2)-1 {
					t.Fatalf("stream %d: Now = %d after recovery, below snapshot watermark %d (stats %+v)",
						s, now, arrivals/2-1, stats)
				}
				if now >= int64(arrivals) {
					t.Fatalf("stream %d: Now = %d exceeds ingested %d", s, now, arrivals)
				}
			}

			// Exactness: the recovered monitor equals an uninterrupted one
			// fed each stream's surviving prefix through the normal path.
			want, err := New(withoutWAL(cfg))
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < cfg.Streams; s++ {
				n := int(got.Now(s)) + 1
				if err := want.IngestBatch(s, series[s][:n]); err != nil {
					t.Fatal(err)
				}
			}
			assertSameState(t, got, want)
		})
	}
}

// TestCrashMatrixWatcherNoDuplicateEvents crashes a watcher-backed
// durable deployment mid-stream and asserts the recovered watcher emits
// exactly the events the uninterrupted run would — none double-fired
// across the crash, none lost.
func TestCrashMatrixWatcherNoDuplicateEvents(t *testing.T) {
	const arrivals = 96
	for trial := 0; trial < 4; trial++ {
		trial := trial
		t.Run("", func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{
				Streams: 2, W: 8, Levels: 3, Transform: Sum, Mode: Online, BoxCapacity: 4,
				Durability: DurabilityConfig{Dir: filepath.Join(dir, "wal"), Fsync: FsyncNone},
			}
			snap := filepath.Join(dir, "state.snap")
			// A threshold the moving sum crosses repeatedly, so edge events
			// fire and clear across the run.
			register := func(w interface {
				WatchAggregate(stream, win int, threshold float64, edge bool) (int, error)
			}) error {
				if _, err := w.WatchAggregate(0, 16, 40, true); err != nil {
					return err
				}
				_, err := w.WatchAggregate(1, 8, 20, false)
				return err
			}
			series := make([][]float64, cfg.Streams)
			for s := range series {
				series[s] = make([]float64, arrivals)
				for i := range series[s] {
					series[s][i] = 5 + 6*math.Sin(float64(i)*0.4+float64(s+trial))
				}
			}

			// Reference: uninterrupted run.
			refMon, err := New(withoutWAL(cfg))
			if err != nil {
				t.Fatal(err)
			}
			ref := NewWatcher(refMon)
			if err := register(ref); err != nil {
				t.Fatal(err)
			}
			var wantEvents []Event
			push := func(w interface {
				Push(stream int, v float64) ([]Event, error)
			}, lo, hi int) []Event {
				var out []Event
				for i := lo; i < hi; i++ {
					for s := 0; s < cfg.Streams; s++ {
						evs, err := w.Push(s, series[s][i])
						if err != nil {
							t.Fatal(err)
						}
						out = append(out, evs...)
					}
				}
				return out
			}
			wantEvents = push(ref, 0, arrivals)

			// Crashed run: push a prefix, optionally checkpoint, crash
			// (drop without Close — the FsyncNone WAL survives a process
			// crash intact), recover, push the rest.
			crashAt := arrivals/2 + trial*7
			liveMon, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			live := NewWatcher(liveMon)
			if err := register(live); err != nil {
				t.Fatal(err)
			}
			got := push(live, 0, crashAt)
			if trial%2 == 0 {
				if err := liveMon.Checkpoint(snap); err != nil {
					t.Fatal(err)
				}
			} else {
				snap = ""
			}
			// crash here: liveMon abandoned without Close

			recovered, stats, err := RecoverWatcher(cfg, snap, func(sw *SafeWatcher) error { return register(sw) })
			if err != nil {
				t.Fatal(err)
			}
			defer recovered.Close()
			if stats.Records == 0 {
				t.Fatalf("replay applied no records: %+v", stats)
			}
			got = append(got, push(recovered, crashAt, arrivals)...)

			if !reflect.DeepEqual(got, wantEvents) {
				t.Fatalf("crash-recovery event stream diverged:\ngot  %d events %+v\nwant %d events %+v",
					len(got), got, len(wantEvents), wantEvents)
			}
		})
	}
}
