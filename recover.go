package stardust

import (
	"errors"
	"fmt"
	"io/fs"

	"stardust/internal/wal"
)

// Recover restores a durable monitor after a crash or restart: the latest
// snapshot (snapshotPath, with the usual .bak fallback; "" or a missing
// file starts from empty) is loaded, and the write-ahead log in
// cfg.Durability.Dir is replayed over it. Replay is idempotent — WAL
// records carry the discrete times their samples were admitted at, so
// samples the snapshot already covers are skipped — and a torn final
// record from the crash is truncated away. The returned monitor has the
// log attached and keeps write-ahead logging new ingestion.
//
// cfg supplies the deployment's runtime settings (guard policy, worker
// pool) and, when no snapshot exists, the summary shape. Replay bypasses
// the resilience guard — the log holds only samples the guard already
// admitted — so guard counters and repair memory (e.g. the LastValue
// fill) restart empty, exactly as after LoadFile.
func Recover(cfg Config, snapshotPath string) (*Monitor, ReplayStats, error) {
	if cfg.Durability.Dir == "" {
		return nil, ReplayStats{}, fmt.Errorf("stardust: Recover requires Config.Durability.Dir")
	}
	sw, stats, err := RecoverWatcher(cfg, snapshotPath, nil)
	if err != nil {
		return nil, stats, err
	}
	return sw.w.mon, stats, nil
}

// RecoverWatcher restores a deployment together with its standing
// queries — the one boot path of a concurrent backend. The snapshot is
// restored as by Recover (or a fresh monitor built from cfg) and wrapped
// in a SafeWatcher; register is then called with it to install the
// deployment's watches (through the SafeWatcher's own methods, or a
// registry built over it). The watches are primed against the restored
// state (snapshot-covered samples are skipped by replay, so their
// evaluations must be reconstructed from the restored summary), and,
// when cfg.Durability.Dir is set, the WAL tail is replayed through the
// aggregate watches with events suppressed, re-deriving each one's edge
// state, before the log is attached (pattern and correlation watches hold
// no state to rebuild, so replay does not evaluate them). Alarms that
// fired before the crash are therefore NOT fired again — after recovery
// the watcher behaves exactly as if ingestion had never been
// interrupted. Without a WAL directory only the snapshot is restored
// and the zero ReplayStats is returned.
func RecoverWatcher(cfg Config, snapshotPath string, register func(*SafeWatcher) error) (*SafeWatcher, ReplayStats, error) {
	m, err := loadOrNewMonitor(cfg, snapshotPath)
	if err != nil {
		return nil, ReplayStats{}, err
	}
	sw := NewSafeWatcher(m)
	if register != nil {
		if err := register(sw); err != nil {
			return nil, ReplayStats{}, err
		}
	}
	sw.w.primeRecovery()
	if cfg.Durability.Dir == "" {
		return sw, ReplayStats{}, nil
	}
	log, err := openWAL(cfg.Durability, &m.metrics.WAL)
	if err != nil {
		return nil, ReplayStats{}, fmt.Errorf("stardust: %v", err)
	}
	stats, err := log.Replay(func(rec wal.Record) error {
		sw.w.applyRecord(rec, applyReplay)
		return nil
	})
	if err != nil {
		log.Close()
		return nil, stats, fmt.Errorf("stardust: wal replay: %w", err)
	}
	m.wal = log
	return sw, stats, nil
}

// loadOrNewMonitor restores from the snapshot when one exists, else builds
// fresh from cfg — in both cases WITHOUT opening the WAL, and with cfg's
// runtime settings (guard, worker pool) applied.
func loadOrNewMonitor(cfg Config, snapshotPath string) (*Monitor, error) {
	if snapshotPath != "" {
		m, err := LoadFile(snapshotPath)
		switch {
		case err == nil:
			m.SetBadValuePolicy(cfg.BadValues)
			m.SetParallelism(cfg.Parallel.Workers)
			return m, nil
		case errors.Is(err, fs.ErrNotExist):
		default:
			return nil, err
		}
	}
	return newMonitor(cfg)
}

// applyRecord applies one logged run through the watcher's apply path in
// the given mode (replay or replication), skipping the values whose
// discrete times the summary already covers (a restored snapshot or
// replica bootstrap), so applying from any LSN at or before the covered
// watermark plus one is exact. Streams registered with AddStream after
// the snapshot are re-registered on demand. The guard and the WAL are
// bypassed — the record holds only samples the guard already admitted —
// and evaluation errors are dropped, as the live push's partial-event
// contract already delivered them. It returns the triggered events for
// the caller to suppress or deliver.
func (w *Watcher) applyRecord(rec wal.Record, mode applyMode) []Event {
	m := w.mon
	for rec.Stream >= m.NumStreams() {
		m.AddStream()
	}
	vs := rec.Values
	if now := m.sum.Now(rec.Stream); rec.Start <= now {
		skip := now - rec.Start + 1
		if skip >= int64(len(vs)) {
			return nil
		}
		vs = vs[skip:]
	}
	events, _ := w.apply(rec.Stream, vs, mode)
	return events
}
