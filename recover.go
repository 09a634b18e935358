package stardust

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

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
// when cfg.Durability.Dir is set, the WAL tail is replayed through
// standing-query evaluation with events suppressed, re-deriving each
// watch's edge and dedup state, before the log is attached. Alarms that
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
		sw.w.applyRecord(rec)
		return nil
	})
	if err != nil {
		log.Close()
		return nil, stats, fmt.Errorf("stardust: wal replay: %w", err)
	}
	m.wal = log
	return sw, stats, nil
}

// RecoverSharded restores a durable sharded monitor: the SDSH snapshot is
// loaded (or a fresh partition built from cfg and shards), then each
// shard replays its own log from cfg.Durability.Dir/shard-NNNN. The shard
// count of a durable deployment must stay fixed across restarts — the
// per-shard directories are keyed by shard index.
func RecoverSharded(cfg Config, shards int, snapshotPath string) (*ShardedMonitor, []ReplayStats, error) {
	if cfg.Durability.Dir == "" {
		return nil, nil, fmt.Errorf("stardust: RecoverSharded requires Config.Durability.Dir")
	}
	var sm *ShardedMonitor
	if snapshotPath != "" {
		s, err := LoadShardedFile(snapshotPath)
		switch {
		case err == nil:
			for _, shard := range s.shards {
				shard.w.mon.SetBadValuePolicy(cfg.BadValues)
				shard.w.mon.SetParallelism(cfg.Parallel.Workers)
			}
			sm = s
		case errors.Is(err, fs.ErrNotExist):
		default:
			return nil, nil, err
		}
	}
	if sm == nil {
		scfg := cfg
		scfg.Durability = DurabilityConfig{} // logs attach below, after replay
		s, err := NewSharded(scfg, shards)
		if err != nil {
			return nil, nil, err
		}
		sm = s
	}
	allStats := make([]ReplayStats, len(sm.shards))
	for i, shard := range sm.shards {
		d := cfg.Durability
		d.Dir = shardWALDir(cfg.Durability.Dir, i)
		m := shard.w.mon
		log, err := openWAL(d, &m.metrics.WAL)
		if err != nil {
			sm.Close()
			return nil, nil, fmt.Errorf("stardust: shard %d: %v", i, err)
		}
		stats, err := log.Replay(func(rec wal.Record) error {
			shard.w.applyRecord(rec)
			return nil
		})
		if err != nil {
			log.Close()
			sm.Close()
			return nil, nil, fmt.Errorf("stardust: shard %d wal replay: %w", i, err)
		}
		m.wal = log
		allStats[i] = stats
	}
	return sm, allStats, nil
}

// shardWALDir is the per-shard WAL directory layout shared by NewSharded
// and RecoverSharded.
func shardWALDir(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d", shard))
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

// applyRecord applies one logged run through the watcher's apply path,
// skipping the values whose discrete times the summary already covers
// (a restored snapshot or replica bootstrap), so applying from any LSN at
// or before the covered watermark plus one is exact. Streams registered
// with AddStream after the snapshot are re-registered on demand. The
// guard and the WAL are bypassed — the record holds only samples the
// guard already admitted — and evaluation errors are dropped, as the
// live push's partial-event contract already delivered them. It returns
// the triggered events for the caller to suppress or deliver.
func (w *Watcher) applyRecord(rec wal.Record) []Event {
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
	events, _ := w.apply(rec.Stream, vs, false)
	return events
}

// LoadShardedFile restores a sharded monitor from a snapshot file written
// by WriteSnapshotFile, with the same .bak fallback and fs.ErrNotExist
// contract as LoadFile.
func LoadShardedFile(path string) (*ShardedMonitor, error) {
	sm, err := loadShardedPath(path)
	if err == nil {
		return sm, nil
	}
	if bm, berr := loadShardedPath(path + ".bak"); berr == nil {
		return bm, nil
	} else if errors.Is(err, fs.ErrNotExist) && !errors.Is(berr, fs.ErrNotExist) {
		return nil, berr
	}
	return nil, err
}

func loadShardedPath(path string) (*ShardedMonitor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sm, err := LoadSharded(f)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	return sm, nil
}
