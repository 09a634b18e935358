package stardust

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"stardust/internal/wal"
)

// flakyFS is a wal.FS whose open, write and fsync operations fail while
// broken is set — a disk that dies and later comes back. Reads and
// directory operations keep working, the way a failing disk usually
// still serves its cache.
type flakyFS struct {
	base   wal.FS
	broken *atomic.Bool
}

func (f *flakyFS) MkdirAll(dir string, perm os.FileMode) error { return f.base.MkdirAll(dir, perm) }
func (f *flakyFS) ReadDir(dir string) ([]os.DirEntry, error)   { return f.base.ReadDir(dir) }
func (f *flakyFS) ReadFile(path string) ([]byte, error)        { return f.base.ReadFile(path) }
func (f *flakyFS) Truncate(path string, size int64) error      { return f.base.Truncate(path, size) }
func (f *flakyFS) Remove(path string) error                    { return f.base.Remove(path) }

func (f *flakyFS) OpenFile(path string, flag int, perm os.FileMode) (wal.File, error) {
	if f.broken.Load() {
		return nil, fmt.Errorf("flakyFS: disk broken (open %s)", path)
	}
	file, err := f.base.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &flakyFile{f: file, broken: f.broken}, nil
}

type flakyFile struct {
	f      wal.File
	broken *atomic.Bool
}

func (f *flakyFile) Write(p []byte) (int, error) {
	if f.broken.Load() {
		return 0, fmt.Errorf("flakyFS: disk broken (write)")
	}
	return f.f.Write(p)
}

func (f *flakyFile) Sync() error {
	if f.broken.Load() {
		return fmt.Errorf("flakyFS: disk broken (fsync)")
	}
	return f.f.Sync()
}

func (f *flakyFile) Close() error { return f.f.Close() }

// TestDegradeRecoverCheckpointCrashRecover drives the full degraded-mode
// lifecycle: a monitor under WALFailDegrade keeps acking ingestion while
// its disk is dead, automatically re-attaches the log with a catch-up
// checkpoint once the disk heals, logs post-recovery samples normally —
// and a crash after all that recovers to exactly the live state,
// including every sample acked during the outage.
func TestDegradeRecoverCheckpointCrashRecover(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(t.TempDir(), "state.snap")
	broken := &atomic.Bool{}
	cfg := Config{
		Streams: 2, W: 8, Levels: 3,
		Durability: DurabilityConfig{
			Dir:           dir,
			Fsync:         FsyncAlways,
			FailPolicy:    WALFailDegrade,
			FS:            &flakyFS{base: wal.OSFS{}, broken: broken},
			RetryAttempts: 1,
			RetryBackoff:  time.Microsecond,
			ProbeInterval: 2 * time.Millisecond,
		},
	}
	m, _, err := Recover(cfg, snap)
	if err != nil {
		t.Fatalf("Recover (fresh): %v", err)
	}
	defer m.Close()
	sm := NewSafeWatcher(m)
	m.SetWALRecover(func() error { return sm.ReattachWAL(snap) })

	ingest := func(phase string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			for s := 0; s < cfg.Streams; s++ {
				if err := sm.Ingest(s, float64(i%7)+float64(s)); err != nil {
					t.Fatalf("%s: ingest: %v", phase, err)
				}
			}
		}
	}

	// Phase 1: healthy disk.
	ingest("healthy", 25)
	if m.WALDegraded() {
		t.Fatal("degraded before any fault")
	}

	// Phase 2: the disk dies. Every ingest must still be acked — that is
	// the whole point of the degrade policy — and the monitor must flag
	// the lost durability.
	broken.Store(true)
	ingest("degraded", 25)
	if !m.WALDegraded() {
		t.Fatal("monitor not degraded after appends on a dead disk")
	}

	// Phase 3: the disk heals; the probe loop must re-attach via the
	// SetWALRecover callback (catch-up checkpoint, then Reattach) on its own.
	broken.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for m.WALDegraded() {
		if time.Now().After(deadline) {
			t.Fatal("monitor never re-attached after disk recovery")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("catch-up checkpoint missing: %v", err)
	}

	// Phase 4: post-recovery ingest is WAL-logged again.
	ingest("recovered", 25)

	// Crash (no Close, no final snapshot) and recover from disk. The
	// degraded window lives in the checkpoint, the post-recovery samples
	// in the re-attached log; together they must reproduce the live state
	// byte for byte.
	var want bytes.Buffer
	if err := sm.Snapshot(&want); err != nil {
		t.Fatalf("live snapshot: %v", err)
	}
	cfg2 := cfg
	cfg2.Durability.FS = nil // the healed disk needs no fault seam
	m2, stats, err := Recover(cfg2, snap)
	if err != nil {
		t.Fatalf("Recover (crash): %v", err)
	}
	defer m2.Close()
	if stats.Records == 0 {
		t.Fatal("crash recovery replayed nothing: post-recovery samples were not logged")
	}
	var got bytes.Buffer
	if err := m2.Snapshot(&got); err != nil {
		t.Fatalf("recovered snapshot: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("state recovered after crash differs from live state: degraded-window samples lost")
	}
}
