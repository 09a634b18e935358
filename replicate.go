package stardust

import (
	"fmt"
	"io"

	"stardust/internal/wal"
)

// WALRecord is one write-ahead-log record: a run of admitted samples for
// one stream with their assigned discrete times. It is the unit shipped
// from a replication primary to its read-only followers, and the unit
// those followers apply through SafeWatcher.ApplyWALRecord.
type WALRecord = wal.Record

// WAL exposes the monitor's write-ahead log, or nil without durability.
// The replication primary serves its follower streams directly from it;
// treat the log as read-only through this accessor — appends belong to
// the ingestion path.
func (m *Monitor) WAL() *wal.Log { return m.wal }

// WAL exposes the watched monitor's write-ahead log (see Monitor.WAL).
// The log is internally synchronized, so serving replication streams
// from it does not hold the watcher's lock.
func (s *SafeWatcher) WAL() *wal.Log {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.w.mon.wal
}

// Promote attaches log — a sealed replication mirror handed over by
// Follower.Seal — as the watched monitor's write-ahead log, converting a
// read-only follower into a durable primary in place: subsequent
// ingestion write-ahead logs at the LSNs continuing the replicated
// history (so surviving followers keep streaming without a
// re-bootstrap), and ApplyWALRecord / BootstrapReplica begin refusing
// exactly as on any durable monitor. The log is re-pointed at this
// monitor's metrics. Standing queries keep running across the promotion
// — only the durability role changes.
func (s *SafeWatcher) Promote(log *wal.Log) error {
	if log == nil {
		return fmt.Errorf("stardust: Promote requires a sealed mirror log")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.w.mon
	if m.wal != nil {
		return fmt.Errorf("stardust: Promote on an already-durable monitor")
	}
	log.SetMetrics(&m.metrics.WAL)
	m.wal = log
	return nil
}

// ApplyWALRecord applies one replicated record through standing-query
// evaluation under the write lock, with the same idempotent time-skip as
// crash-recovery replay: snapshot-covered samples are skipped, the rest
// are applied and evaluated, and triggered events go to the SetEventSink
// callback — a follower therefore emits exactly the events the primary's
// uninterrupted ingestion would have, minus those already covered by its
// bootstrap snapshot. The record bypasses the resilience guard (the
// primary's guard already admitted it) and is not re-logged — followers
// are not durable; their durability is the primary's log.
func (s *SafeWatcher) ApplyWALRecord(rec WALRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w.mon.wal != nil {
		return fmt.Errorf("stardust: ApplyWALRecord on a durable monitor (followers must not write-ahead log)")
	}
	s.deliver(s.w.applyRecord(rec))
	return nil
}

// BootstrapReplica replaces the watched monitor's state from a snapshot
// stream — a follower (re-)bootstrapping from its primary's
// /repl/snapshot — and re-primes every standing query against it
// (primeRecovery's edge and dedup reconstruction), so alarms the
// snapshot state already reflects are not re-fired. The snapshot is
// loaded outside the lock; the previous monitor's runtime settings
// (bad-value guard, query parallelism) carry over, and registered
// watches survive the swap — they hold only their parameters, not
// monitor state. Monitor-level metrics restart from zero, exactly as
// after LoadFile.
func (s *SafeWatcher) BootstrapReplica(r io.Reader) error {
	m, err := Load(r)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.w.mon
	if old.wal != nil {
		return fmt.Errorf("stardust: BootstrapReplica on a durable monitor")
	}
	m.guard = old.guard
	m.SetParallelism(old.Parallelism())
	s.w.mon = m
	s.w.primeRecovery()
	return nil
}
