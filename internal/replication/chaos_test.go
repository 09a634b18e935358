package replication_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"stardust"
	"stardust/internal/fault"
	"stardust/internal/replication"
	"stardust/internal/server"
	"stardust/internal/wal"
)

// TestChaosMatrix is the fault-injection acceptance test: several rounds,
// each with a different seed, of a primary whose WAL disk throws
// probabilistic write/fsync errors (absorbed by the log's retries under
// the fail-stop policy), a mirrored follower whose replication transport
// suffers random connection cuts and mid-stream drops, a primary kill
// followed by automated-path promotion of the follower, and a second
// follower converging on the promoted primary. Throughout, a fault-free
// reference monitor receives exactly the acked samples; every snapshot
// along the way must be byte-identical to the reference — acked data is
// never lost, whatever the schedule did.
func TestChaosMatrix(t *testing.T) {
	rounds := 5
	if testing.Short() {
		rounds = 2
	}
	for seed := 0; seed < rounds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			chaosRound(t, int64(seed))
		})
	}
}

func chaosRound(t *testing.T, seed int64) {
	cfg := e2eConfig(4)

	// Fault-free reference: receives exactly the samples the chaotic
	// pipeline acked, in the same order.
	ref, err := stardust.New(cfg)
	if err != nil {
		t.Fatalf("New(reference): %v", err)
	}

	// Primary on a disk whose writes fail probabilistically, some of them
	// torn (partial=3 leaves a 3-byte stub the log must clean up before
	// the retry). Retries absorb transient faults; an append that fails
	// every retry rolls the segment tail back, so a nack means the record
	// is not in the log. Sync faults are deliberately absent: a failed
	// fsync after a completed frame write leaves the record's existence
	// indeterminate (committed in the log, unacked to the caller), which
	// no byte-identical invariant can hold across — the wal package's
	// fault tests cover those retry paths at the unit level.
	rules, err := fault.ParseSchedule(`
wal.write prob=0.08 err=eio partial=3
`)
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	walInj := fault.New(seed, rules...)
	pcfg := cfg
	pcfg.Durability = stardust.DurabilityConfig{
		Dir:           t.TempDir(),
		Fsync:         stardust.FsyncNone, // sync faults are unarmed (see above); skip real fsyncs for speed
		SegmentBytes:  1 << 12,
		FS:            fault.NewFS(wal.OSFS{}, walInj, "wal"),
		RetryAttempts: 4,
		RetryBackoff:  time.Microsecond,
	}
	pm, err := stardust.New(pcfg)
	if err != nil {
		t.Fatalf("New(primary): %v", err)
	}
	defer pm.Close()
	psm := stardust.NewSafeWatcher(pm)
	psrv := server.New(psm)
	psrv.AttachPrimary(pm.WAL(), nil)
	pts := httptest.NewServer(psrv)
	defer pts.Close()

	// Mirrored follower whose transport cuts connections and drops
	// streams mid-body. Tight backoff so reconnect storms stay fast.
	netRules, err := fault.ParseSchedule(`
repl.request prob=0.10 err=eio
repl.body    prob=0.03 err=eio
`)
	if err != nil {
		t.Fatalf("ParseSchedule(net): %v", err)
	}
	rm, err := stardust.New(cfg)
	if err != nil {
		t.Fatalf("New(replica): %v", err)
	}
	rsm := stardust.NewSafeWatcher(rm)
	rsrv := server.New(rsm)
	f, err := replication.NewFollower(replication.FollowerConfig{
		Primary: pts.URL,
		Client: &http.Client{Transport: &fault.Transport{
			Inj:    fault.New(seed+1000, netRules...),
			Prefix: "repl",
		}},
		Bootstrap:          func(r io.Reader, _ uint64) error { return rsm.BootstrapReplica(r) },
		Apply:              rsm.ApplyWALRecord,
		MinBackoff:         time.Millisecond,
		MaxBackoff:         20 * time.Millisecond,
		MirrorDir:          t.TempDir(),
		MirrorSegmentBytes: 1 << 12,
	})
	if err != nil {
		t.Fatalf("NewFollower: %v", err)
	}
	rsrv.SetFollower(f, nil)
	rts := httptest.NewServer(rsrv)
	defer rts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.Run(ctx)
	// Bootstrap before the chaotic ingest begins so the watermark is 0 and
	// every record reaches the follower through the stream.
	waitBootstrapped(t, f)

	// Phase 1: chaotic ingest into the primary. A nacked append never
	// entered the log (exhausted write retries roll the tail back), so it
	// legitimately never happened and is withheld from the reference; the
	// LSN check asserts that rollback contract held on every nack.
	rng := rand.New(rand.NewSource(seed))
	acked, nacked := 0, 0
	for i := 0; i < 400; i++ {
		stream := rng.Intn(cfg.Streams)
		v := rng.NormFloat64()
		before := pm.WAL().LastLSN()
		if err := psm.Ingest(stream, v); err != nil {
			if after := pm.WAL().LastLSN(); after != before {
				t.Fatalf("nacked append advanced the LSN (%d -> %d): nacks must roll back", before, after)
			}
			nacked++
			continue
		}
		acked++
		if err := ref.Ingest(stream, v); err != nil {
			t.Fatalf("reference ingest: %v", err)
		}
	}
	if acked == 0 {
		t.Fatal("chaos schedule nacked every sample; round is vacuous")
	}
	t.Logf("phase 1: %d acked, %d nacked, injector %+v", acked, nacked, walInj.Counters())

	lastLSN := pm.WAL().LastLSN()
	waitConverged(t, f, lastLSN)
	if got, want := snapshotBytes(t, rsm), snapshotBytes(t, ref); !bytes.Equal(got, want) {
		t.Fatal("replica snapshot differs from fault-free reference before failover")
	}

	// Phase 2: kill the primary and fail over. FailoverWatch drives the
	// same Promote the -failover-watch supervisor uses, against the dead
	// primary's URL.
	// Kill, not drain: sever the follower's live follow stream mid-poll,
	// the way a crashed primary would, so Close doesn't wait for it.
	pts.CloseClientConnections()
	pts.Close()
	watchCtx, watchCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer watchCancel()
	var sealedLSN uint64
	err = replication.FailoverWatch(watchCtx, replication.FailoverConfig{
		Primary:   pts.URL,
		Interval:  5 * time.Millisecond,
		FailAfter: 3,
		Promote: func(context.Context) error {
			lsn, perr := rsrv.Promote()
			sealedLSN = lsn
			return perr
		},
	})
	if err != nil {
		t.Fatalf("FailoverWatch: %v", err)
	}
	if sealedLSN != lastLSN {
		t.Fatalf("mirror sealed at LSN %d, want the dead primary's last LSN %d", sealedLSN, lastLSN)
	}

	// Phase 3: the promoted primary ingests (fault-free disk — the mirror
	// directory was never under the schedule), and a fresh follower
	// converges on it, streaming LSNs that continue the old primary's.
	const phase3 = 200
	for i := 0; i < phase3; i++ {
		stream := rng.Intn(cfg.Streams)
		v := rng.NormFloat64()
		if err := rsm.Ingest(stream, v); err != nil {
			t.Fatalf("promoted ingest: %v", err)
		}
		if err := ref.Ingest(stream, v); err != nil {
			t.Fatalf("reference ingest: %v", err)
		}
	}

	f2m, err := stardust.New(cfg)
	if err != nil {
		t.Fatalf("New(follower2): %v", err)
	}
	f2sm := stardust.NewSafeWatcher(f2m)
	f2, err := replication.NewFollower(replication.FollowerConfig{
		Primary:    rts.URL,
		Bootstrap:  func(r io.Reader, _ uint64) error { return f2sm.BootstrapReplica(r) },
		Apply:      f2sm.ApplyWALRecord,
		MinBackoff: time.Millisecond,
		MaxBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewFollower(2): %v", err)
	}
	go f2.Run(ctx)
	// Each promoted ingest appends exactly one record continuing the
	// sealed lineage, so the promoted log's last LSN is known.
	waitConverged(t, f2, sealedLSN+phase3)

	want := snapshotBytes(t, ref)
	if got := snapshotBytes(t, rsm); !bytes.Equal(got, want) {
		t.Fatal("promoted primary snapshot differs from fault-free reference")
	}
	if got := snapshotBytes(t, f2sm); !bytes.Equal(got, want) {
		t.Fatal("post-failover follower snapshot differs from fault-free reference")
	}
	assertEqualQueries(t, rsm, ref)
}
