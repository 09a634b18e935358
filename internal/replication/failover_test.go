package replication_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"stardust"
	"stardust/internal/replication"
)

// TestMirrorSealHandsOverWritableLog converges a mirror-keeping follower
// against a live primary, seals it, and checks the promotion raw
// material: the mirror holds byte-identical frames for the primary's
// whole history and accepts new appends at the next LSN.
func TestMirrorSealHandsOverWritableLog(t *testing.T) {
	sm, m, url := newPrimaryServer(t)

	fm, err := stardust.New(e2eConfig(4))
	if err != nil {
		t.Fatalf("New follower: %v", err)
	}
	fsm := stardust.NewSafeWatcher(fm)
	f, err := replication.NewFollower(replication.FollowerConfig{
		Primary:    url,
		Bootstrap:  func(r io.Reader, _ uint64) error { return fsm.BootstrapReplica(r) },
		Apply:      fsm.ApplyWALRecord,
		MinBackoff: time.Millisecond,
		MirrorDir:  t.TempDir(),
	})
	if err != nil {
		t.Fatalf("NewFollower: %v", err)
	}
	// Connect before ingesting: the bootstrap watermark is then 0 and the
	// mirror must cover the primary's history from LSN 1.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- f.Run(ctx) }()
	waitBootstrapped(t, f)

	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		for s := 0; s < 4; s++ {
			if err := sm.Ingest(s, rng.NormFloat64()); err != nil {
				t.Fatalf("Ingest: %v", err)
			}
		}
	}
	waitConverged(t, f, m.WAL().LastLSN())

	mirror, err := f.Seal()
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	defer mirror.Close()
	select {
	case err := <-runErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run exited with %v after Seal, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not exit after Seal")
	}
	if err := f.Run(ctx); !errors.Is(err, replication.ErrSealed) {
		t.Fatalf("Run after Seal = %v, want ErrSealed", err)
	}

	// The mirror's retained range and raw frames match the primary's log
	// byte for byte — a promoted primary serves the identical stream.
	pf, pl := m.WAL().Bounds()
	mf, ml := mirror.Bounds()
	if mf != pf || ml != pl {
		t.Fatalf("mirror bounds (%d, %d), primary (%d, %d)", mf, ml, pf, pl)
	}
	drain := func(name string, l interface {
		ReadFrames(from uint64, maxBytes int) ([]byte, uint64, error)
	}) []byte {
		var all []byte
		for lsn := pf; lsn <= pl; {
			data, next, err := l.ReadFrames(lsn, 1<<20)
			if err != nil {
				t.Fatalf("%s ReadFrames(%d): %v", name, lsn, err)
			}
			if next == lsn {
				t.Fatalf("%s has no record at lsn %d", name, lsn)
			}
			all = append(all, data...)
			lsn = next
		}
		return all
	}
	if got, want := drain("mirror", mirror), drain("primary", m.WAL()); !bytes.Equal(got, want) {
		t.Fatalf("mirror frames differ from primary's (%d vs %d bytes)", len(got), len(want))
	}

	// Sealed mirror is writable at the next LSN: the promotion append path.
	lsn, err := mirror.Append(0, 0, []float64{1, 2, 3})
	if err != nil {
		t.Fatalf("Append to sealed mirror: %v", err)
	}
	if lsn != pl+1 {
		t.Fatalf("post-seal append got LSN %d, want %d", lsn, pl+1)
	}
}

// TestSealWithoutMirrorFails documents that promotion requires a
// configured mirror.
func TestSealWithoutMirrorFails(t *testing.T) {
	sm, m, url := newPrimaryServer(t)
	_ = sm
	_ = m
	fm, err := stardust.New(e2eConfig(4))
	if err != nil {
		t.Fatalf("New follower: %v", err)
	}
	fsm := stardust.NewSafeWatcher(fm)
	f, err := replication.NewFollower(replication.FollowerConfig{
		Primary:   url,
		Bootstrap: func(r io.Reader, _ uint64) error { return fsm.BootstrapReplica(r) },
		Apply:     fsm.ApplyWALRecord,
	})
	if err != nil {
		t.Fatalf("NewFollower: %v", err)
	}
	if _, err := f.Seal(); err == nil {
		t.Fatal("Seal without MirrorDir should fail")
	}
}

// TestFailoverWatchPromotesAfterConsecutiveFailures checks both halves of
// the failover contract: a healthy primary is never failed over, and a
// dead one triggers exactly one promotion after FailAfter consecutive
// failed probes.
func TestFailoverWatchPromotesAfterConsecutiveFailures(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.NotFound(w, r)
			return
		}
		if !healthy.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	var promotions atomic.Int64
	probed := make(chan struct{}, 1)
	cfg := replication.FailoverConfig{
		Primary:   ts.URL,
		Interval:  2 * time.Millisecond,
		FailAfter: 3,
		Promote: func(ctx context.Context) error {
			promotions.Add(1)
			return nil
		},
		OnProbe: func(err error, fails int) {
			select {
			case probed <- struct{}{}:
			default:
			}
		},
	}

	// Healthy primary: the watch keeps probing and never promotes.
	ctx, cancel := context.WithCancel(context.Background())
	watchErr := make(chan error, 1)
	go func() { watchErr <- replication.FailoverWatch(ctx, cfg) }()
	for i := 0; i < 5; i++ {
		select {
		case <-probed:
		case <-time.After(5 * time.Second):
			t.Fatal("watch stopped probing a healthy primary")
		}
	}
	if n := promotions.Load(); n != 0 {
		t.Fatalf("%d promotions against a healthy primary", n)
	}
	cancel()
	if err := <-watchErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled watch returned %v", err)
	}

	// Dead primary: promotion fires once, and the watch returns nil.
	healthy.Store(false)
	err := replication.FailoverWatch(context.Background(), cfg)
	if err != nil {
		t.Fatalf("FailoverWatch after primary death: %v", err)
	}
	if n := promotions.Load(); n != 1 {
		t.Fatalf("promotions = %d, want exactly 1", n)
	}
}
