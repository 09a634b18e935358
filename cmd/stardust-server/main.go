// Command stardust-server runs the HTTP monitoring service: JSON ingestion
// plus aggregate, pattern and correlation queries over a shared Stardust
// summary, with crash-safe snapshot persistence across restarts.
//
// With -tcp-addr set, a second ingest surface mounts next to HTTP: the
// binary wire protocol served by internal/transport, for high-rate
// forwarders using the client package (client.WithTCP). Both surfaces
// feed the same backend and enforce the same guard policies;
// -tcp-max-conns caps concurrent wire connections, with excess dials
// queueing in the kernel accept backlog. The tier drains before the WAL
// closes on shutdown, and is instrumented as the stardust_net_* series
// on GET /metricsz. See RUNBOOK.md, "Wire protocol", for the frame
// layout and alert mapping.
//
// Usage:
//
//	stardust-server -addr :8080 -streams 16 -w 16 -levels 5 \
//	    -transform dwt -mode batch -norm z -snapshot state.snap \
//	    -snapshot-every 30s -bad-values lastvalue
//
// If the snapshot file (or its .bak fallback) exists at startup, state is
// restored from it; a snapshot that exists but cannot be read fails
// startup loudly rather than silently discarding state. On SIGINT/SIGTERM
// the server drains in-flight requests and writes a final snapshot before
// exiting.
//
// With -wal-dir set, every admitted sample is write-ahead logged before
// it reaches the summary, so a hard crash between snapshots is
// recoverable: startup replays the log over the restored snapshot
// (stardust.RecoverWatcher), auto-snapshots trim replayed segments, and the
// -fsync policy (interval, always, none) picks the durability/latency
// trade. A durable server is automatically a replication primary: it
// serves its log on GET /wal (plus /repl/status and /repl/snapshot) so
// read replicas can follow it.
//
// With -replicate-from set to a primary's base URL, the server runs as a
// read-only replica instead: it bootstraps from the primary's latest
// snapshot, streams and applies the primary's WAL continuously, rejects
// POST /ingest with 403, serves every query endpoint from the replicated
// state, and reports its lag on GET /readyz. On a replica, -wal-dir names
// the local mirror of the primary's log (wiped and rebuilt on every
// bootstrap) — the raw material for promotion. A mirrored replica becomes
// the primary via POST /repl/promote, or automatically with
// -failover-watch, which probes the primary's /healthz and promotes after
// -failover-after consecutive failures.
//
// Every server evaluates standing queries as samples arrive: POST /watch
// registers them, GET /events drains their alarms, and -spec-file /
// -tenants-file install declarative watches and tenants at boot (and
// /specz, /tenantz at run time).
//
// -wal-fail-policy picks the response to persistent disk failure: "stop"
// surfaces append errors to ingestion, "degrade" keeps ingesting in
// memory (flagged by the stardust_wal_degraded gauge and GET /readyz)
// and re-attaches with a catch-up checkpoint once the disk recovers.
// -fault-schedule arms deterministic fault injection for drills.
//
// See internal/server for the endpoint reference, including the
// /healthz and /readyz probes, the Prometheus-text GET /metricsz metrics
// endpoint (ingest latency, R*-tree node accesses, per-query-class
// pruning power) and the GET /debug/pprof/ runtime profiles.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"stardust"
	"stardust/internal/fault"
	"stardust/internal/obs"
	"stardust/internal/replication"
	"stardust/internal/resilience"
	"stardust/internal/server"
	"stardust/internal/tenant"
	"stardust/internal/transport"
	"stardust/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	streams := flag.Int("streams", 4, "number of streams")
	w := flag.Int("w", 16, "base window size")
	levels := flag.Int("levels", 4, "resolution levels")
	transform := flag.String("transform", "sum", "feature transform: sum, max, min, spread, dwt")
	mode := flag.String("mode", "online", "maintenance mode: online, batch, swat")
	norm := flag.String("norm", "none", "DWT normalization: none, unit, z")
	rmax := flag.Float64("rmax", 0, "value-range bound for -norm unit")
	coeffs := flag.Int("f", 2, "DWT coefficients per feature")
	capacity := flag.Int("c", 0, "box capacity (0 = default)")
	history := flag.Int("history", 0, "raw history retained (0 = default)")
	snapshot := flag.String("snapshot", "", "snapshot file (restored at startup when present)")
	snapEvery := flag.Duration("snapshot-every", 30*time.Second, "auto-snapshot period (0 disables; needs -snapshot)")
	walDir := flag.String("wal-dir", "", "write-ahead log directory (enables durability; replayed at startup)")
	fsync := flag.String("fsync", "interval", "WAL fsync policy: interval, always, none")
	fsyncEvery := flag.Duration("fsync-interval", 50*time.Millisecond, "fsync period for -fsync interval")
	walSegment := flag.Int("wal-segment-bytes", 0, "WAL segment rotation threshold (0 = default 4 MiB)")
	walFail := flag.String("wal-fail-policy", "stop", "WAL persistent-disk-failure policy: stop (surface errors), degrade (in-memory ingest, auto re-attach)")
	walRetain := flag.Uint64("wal-retain-records", 0, "minimum trailing WAL records kept past checkpoints for absent followers (0 disables)")
	replicateFrom := flag.String("replicate-from", "", "primary base URL; run as a read-only replica (-wal-dir then names the promotion mirror)")
	failoverWatch := flag.Bool("failover-watch", false, "replicas: probe the primary's /healthz and self-promote when it dies (needs a mirror -wal-dir)")
	failoverAfter := flag.Int("failover-after", 3, "consecutive failed health probes before -failover-watch promotes")
	faultSchedule := flag.String("fault-schedule", "", "arm deterministic fault injection: inline schedule text, or @file (see internal/fault)")
	faultSeed := flag.Int64("fault-seed", 1, "RNG seed for probabilistic fault-schedule rules")
	specFile := flag.String("spec-file", "", "monitor spec loaded at startup (a spec that fails to parse, compile or install aborts boot)")
	tenantsFile := flag.String("tenants-file", "", "tenant config JSON array loaded at startup")
	badValues := flag.String("bad-values", "reject", "bad-value policy: reject, clamp, lastvalue")
	clampMin := flag.Float64("clamp-min", 0, "lower clamp bound for -bad-values clamp")
	clampMax := flag.Float64("clamp-max", 0, "upper clamp bound for -bad-values clamp")
	quarantine := flag.Int("quarantine-after", 0, "consecutive bad values before a stream is quarantined (0 = default, <0 disables)")
	readTimeout := flag.Duration("read-timeout", 15*time.Second, "HTTP request read timeout")
	writeTimeout := flag.Duration("write-timeout", 30*time.Second, "HTTP response write timeout")
	tcpAddr := flag.String("tcp-addr", "", "binary wire-protocol listen address (empty disables the TCP tier)")
	tcpMaxConns := flag.Int("tcp-max-conns", 256, "max concurrent TCP wire connections (excess dials queue in the kernel backlog)")
	flag.Parse()

	policy, err := resilience.ParsePolicy(*badValues)
	if err != nil {
		log.Fatal(err)
	}
	guardCfg := stardust.GuardConfig{
		Policy:          policy,
		ClampMin:        *clampMin,
		ClampMax:        *clampMax,
		QuarantineAfter: *quarantine,
	}

	cfg := stardust.Config{
		Streams:      *streams,
		W:            *w,
		Levels:       *levels,
		BoxCapacity:  *capacity,
		Coefficients: *coeffs,
		Rmax:         *rmax,
		History:      *history,
		BadValues:    guardCfg,
	}
	switch *transform {
	case "sum":
		cfg.Transform = stardust.Sum
	case "max":
		cfg.Transform = stardust.Max
	case "min":
		cfg.Transform = stardust.Min
	case "spread":
		cfg.Transform = stardust.Spread
	case "dwt":
		cfg.Transform = stardust.DWT
	default:
		log.Fatalf("unknown transform %q", *transform)
	}
	switch *mode {
	case "online":
		cfg.Mode = stardust.Online
	case "batch":
		cfg.Mode = stardust.Batch
	case "swat":
		cfg.Mode = stardust.SWAT
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
	switch *norm {
	case "none":
		cfg.Normalization = stardust.NormNone
	case "unit":
		cfg.Normalization = stardust.NormUnit
	case "z":
		cfg.Normalization = stardust.NormZ
	default:
		log.Fatalf("unknown normalization %q", *norm)
	}

	// An armed fault injector feeds the WAL's filesystem seam and (on
	// replicas) the follower's HTTP transport, and surfaces its trip
	// counters on /statz and /metricsz. Deterministic given the seed, so a
	// drill that misbehaves can be replayed exactly.
	var inj *fault.Injector
	if *faultSchedule != "" {
		text := *faultSchedule
		if file, ok := strings.CutPrefix(text, "@"); ok {
			b, err := os.ReadFile(file)
			if err != nil {
				log.Fatalf("-fault-schedule: %v", err)
			}
			text = string(b)
		}
		rules, err := fault.ParseSchedule(text)
		if err != nil {
			log.Fatalf("-fault-schedule: %v", err)
		}
		inj = fault.New(*faultSeed, rules...)
		log.Printf("fault injection armed: %d rules, seed %d", len(rules), *faultSeed)
	}

	var failPolicy stardust.WALFailPolicy
	switch *walFail {
	case "stop":
		failPolicy = stardust.WALFailStop
	case "degrade":
		failPolicy = stardust.WALFailDegrade
	default:
		log.Fatalf("unknown wal-fail-policy %q", *walFail)
	}

	// On a replica, -wal-dir names the follower's mirror log rather than a
	// durability WAL (the replica's durability is its primary's log); the
	// monitor itself stays non-durable until promotion attaches the mirror.
	if *walDir != "" && *replicateFrom == "" {
		var policy stardust.FsyncPolicy
		switch *fsync {
		case "interval":
			policy = stardust.FsyncInterval
		case "always":
			policy = stardust.FsyncAlways
		case "none":
			policy = stardust.FsyncNone
		default:
			log.Fatalf("unknown fsync policy %q", *fsync)
		}
		cfg.Durability = stardust.DurabilityConfig{
			Dir:           *walDir,
			Fsync:         policy,
			FsyncInterval: *fsyncEvery,
			SegmentBytes:  *walSegment,
			FailPolicy:    failPolicy,
			OnDegraded: func(degraded bool) {
				if degraded {
					log.Printf("wal: degraded — disk failing, ingesting in memory only")
				} else {
					log.Printf("wal: re-attached — durability restored")
				}
			},
		}
		if inj != nil {
			cfg.Durability.FS = fault.NewFS(wal.OSFS{}, inj, "wal")
		}
	}

	srv, sw, replay, err := boot(cfg, *snapshot, *tenantsFile, *specFile)
	if err != nil {
		log.Fatal(err)
	}
	srv.SetWALRetainRecords(*walRetain)
	if inj != nil {
		srv.SetFaultInjector(inj)
	}
	// Degraded-mode recovery: when the disk heals, take a catch-up
	// checkpoint and re-attach the log through the safe wrapper so the
	// swap is serialized against ingestion. The checkpoint needs somewhere
	// to land, so degrade mode requires a snapshot path.
	if cfg.Durability.Dir != "" && failPolicy == stardust.WALFailDegrade {
		if *snapshot == "" {
			log.Fatal("-wal-fail-policy degrade requires -snapshot: disk recovery re-attaches the log via a catch-up checkpoint")
		}
		snapPath := *snapshot
		sw.WAL().SetRecover(func() error { return sw.ReattachWAL(snapPath) })
	}
	if cfg.Durability.Dir != "" {
		srv.SetReplayStats(replay)
		log.Printf("wal replay: %d records (%d samples) from %d segments in %s (torn tail: %d bytes)",
			replay.Records, replay.Samples, replay.Segments, replay.Duration, replay.TornBytes)
	}

	// Graceful lifecycle: SIGINT/SIGTERM drains connections and takes a
	// final snapshot before exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Replication wiring: a durable server is a primary (its log is
	// served to followers); -replicate-from makes it a follower instead.
	replMetrics := &obs.ReplMetrics{}
	switch {
	case *replicateFrom != "":
		fcfg := replication.FollowerConfig{
			Primary:            *replicateFrom,
			Bootstrap:          func(r io.Reader, _ uint64) error { return sw.BootstrapReplica(r) },
			Apply:              sw.ApplyWALRecord,
			Metrics:            replMetrics,
			MirrorDir:          *walDir,
			MirrorSegmentBytes: *walSegment,
		}
		if inj != nil {
			fcfg.Client = &http.Client{Transport: &fault.Transport{Inj: inj, Prefix: "repl"}}
		}
		follower, err := replication.NewFollower(fcfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := follower.Probe(ctx); err != nil {
			log.Fatalf("replication: cannot reach primary %s: %v", *replicateFrom, err)
		}
		srv.SetFollower(follower, replMetrics)
		go func() {
			if err := follower.Run(ctx); err != nil && ctx.Err() == nil && !errors.Is(err, replication.ErrSealed) {
				log.Printf("replication: follower stopped: %v", err)
			}
		}()
		if *walDir != "" {
			log.Printf("replication: following %s (read-only replica, promotion mirror at %s)", *replicateFrom, *walDir)
		} else {
			log.Printf("replication: following %s (read-only replica)", *replicateFrom)
		}
		if *failoverWatch {
			if *walDir == "" {
				log.Fatal("-failover-watch needs a promotion mirror: set -wal-dir on the replica")
			}
			// The health probe deliberately uses a clean transport — an
			// armed fault schedule cutting replication traffic must not
			// also blind the probe into a spurious promotion.
			go func() {
				err := replication.FailoverWatch(ctx, replication.FailoverConfig{
					Primary:   *replicateFrom,
					FailAfter: *failoverAfter,
					Metrics:   replMetrics,
					Promote: func(context.Context) error {
						lsn, err := srv.Promote()
						if err == nil {
							log.Printf("failover: promoted to primary (mirror sealed at lsn %d)", lsn)
						}
						return err
					},
					OnProbe: func(err error, fails int) {
						if err != nil {
							log.Printf("failover: primary probe failed (%d consecutive): %v", fails, err)
						}
					},
				})
				if err != nil && ctx.Err() == nil {
					log.Printf("failover: %v", err)
				}
			}()
			log.Printf("failover: watching %s/healthz, promoting after %d consecutive failures", *replicateFrom, *failoverAfter)
		}
	case *walDir != "":
		srv.AttachPrimary(sw.WAL(), replMetrics)
		log.Printf("replication: serving WAL to followers at GET /wal (primary)")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("stardust-server listening on %s (%d streams, W=%d, %d levels, %s/%s, bad-values=%v)",
		ln.Addr(), sw.NumStreams(), *w, *levels, *transform, *mode, policy)
	log.Printf("observability: metrics at GET /metricsz (Prometheus text), profiles at GET /debug/pprof/")

	// The binary wire tier shares the backend, the read-only stance, and
	// the lifecycle context with the HTTP server, and publishes its
	// stardust_net_* series through /metricsz. Shutdown waits for its drain
	// before closing the WAL.
	tcpDone := make(chan struct{})
	close(tcpDone)
	if *tcpAddr != "" {
		tln, err := net.Listen("tcp", *tcpAddr)
		if err != nil {
			log.Fatal(err)
		}
		ts := transport.NewServer(transport.Config{
			Backend:  sw,
			ReadOnly: srv.IsReadOnly,
			MaxConns: *tcpMaxConns,
		})
		srv.SetNetMetrics(ts.Metrics())
		tcpDone = make(chan struct{})
		go func() {
			defer close(tcpDone)
			if err := ts.Serve(ctx, tln); err != nil && ctx.Err() == nil {
				log.Printf("tcp transport: %v", err)
			}
		}()
		log.Printf("binary wire protocol listening on %s (max %d conns)", tln.Addr(), *tcpMaxConns)
	}

	err = srv.Serve(ctx, ln, server.ServeOptions{
		SnapshotEvery: *snapEvery,
		ReadTimeout:   *readTimeout,
		WriteTimeout:  *writeTimeout,
	})
	<-tcpDone
	// Close the WAL after the final snapshot so a clean shutdown loses
	// nothing regardless of the fsync policy.
	if cerr := sw.Close(); cerr != nil {
		log.Printf("closing wal: %v", cerr)
	}
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("stardust-server: shut down cleanly")
}

// boot builds the server around its backend — the one construction path
// of every stardust-server: restore the snapshot (or start fresh), wrap
// it in a SafeWatcher with a tenant registry, install the boot-time
// tenants and spec, prime the watches and replay the WAL tail through
// them with events suppressed, then attach the log. Alarms already
// delivered before a crash are therefore not delivered again. A
// snapshot that exists but cannot be read (and has no loadable .bak)
// fails startup rather than silently discarding state.
func boot(cfg stardust.Config, snapshot, tenantsFile, specFile string) (*server.Server, *stardust.SafeWatcher, stardust.ReplayStats, error) {
	tm := obs.NewTenantMetrics()
	var tenants *tenant.Registry
	sw, replay, err := stardust.RecoverWatcher(cfg, snapshot, func(sw *stardust.SafeWatcher) error {
		if sw.Now(0) >= 0 {
			log.Printf("restored state from %s (%d streams at t=%d)", snapshot, sw.NumStreams(), sw.Now(0))
		}
		tenants = tenant.New(sw, tm, time.Now)
		return loadBootConfig(tenants, tenantsFile, specFile)
	})
	if err != nil {
		return nil, nil, replay, err
	}
	srv := server.New(sw, server.WithSnapshotPath(snapshot), server.WithTenants(tenants, tm))
	return srv, sw, replay, nil
}

// loadBootConfig admits the -tenants-file tenants and loads the
// -spec-file spec into the registry. Boot-time config is all-or-nothing:
// a tenant or spec the operator asked for that cannot be installed is a
// fatal misconfiguration, not something to limp past.
func loadBootConfig(tenants *tenant.Registry, tenantsFile, specFile string) error {
	if tenantsFile != "" {
		b, err := os.ReadFile(tenantsFile)
		if err != nil {
			return fmt.Errorf("-tenants-file: %v", err)
		}
		cfgs, err := tenant.ParseConfigs(b)
		if err != nil {
			return fmt.Errorf("-tenants-file %s: %v", tenantsFile, err)
		}
		for _, c := range cfgs {
			if err := tenants.Add(c); err != nil {
				return fmt.Errorf("-tenants-file %s: tenant %q: %v", tenantsFile, c.Name, err)
			}
		}
		log.Printf("tenants: admitted %d from %s", len(cfgs), tenantsFile)
	}
	if specFile != "" {
		b, err := os.ReadFile(specFile)
		if err != nil {
			return fmt.Errorf("-spec-file: %v", err)
		}
		name := strings.TrimSuffix(filepath.Base(specFile), filepath.Ext(specFile))
		if err := tenants.Load(name, string(b)); err != nil {
			return fmt.Errorf("-spec-file %s: %v", specFile, err)
		}
		info, err := tenants.Spec(name)
		if err != nil {
			return fmt.Errorf("-spec-file %s: %v", specFile, err)
		}
		log.Printf("spec: loaded unit %q from %s (%d watches)", name, specFile, info.Watches)
	}
	return nil
}
