package stardust

import (
	"errors"
	"fmt"
	"time"

	"stardust/internal/obs"
	"stardust/internal/wal"
)

// FsyncPolicy selects when the write-ahead log fsyncs appended records;
// see the constants for the durability/latency trade each makes.
type FsyncPolicy = wal.SyncPolicy

// Available fsync policies (Config.Durability.Fsync).
const (
	// FsyncInterval fsyncs from a background loop every FsyncInterval
	// duration — a crash loses at most one interval of samples. The
	// default.
	FsyncInterval = wal.SyncInterval
	// FsyncAlways fsyncs before every Ingest returns; concurrent ingesters
	// share one fsync (group commit).
	FsyncAlways = wal.SyncAlways
	// FsyncNone never fsyncs on the ingest path: a process crash loses
	// nothing already written, an OS crash loses the page cache.
	FsyncNone = wal.SyncNone
)

// WALFailPolicy selects how the write-ahead log responds when a disk
// operation keeps failing after its retries; see WALFailStop and
// WALFailDegrade.
type WALFailPolicy = wal.FailPolicy

// Available fail policies (Config.Durability.FailPolicy).
const (
	// WALFailStop surfaces persistent disk errors to ingestion callers and
	// keeps the log attached, so every subsequent append retries the disk.
	// Nothing is silently dropped. The default.
	WALFailStop = wal.FailStop
	// WALFailDegrade keeps the monitor ingesting through persistent disk
	// failure: the log detaches, affected samples stay in memory only
	// (counted by stardust_wal_dropped_appends_total, flagged by the
	// stardust_wal_degraded gauge), a probe loop watches the disk, and on
	// recovery a catch-up checkpoint restores crash-safety and the log
	// re-attaches to a fresh segment (see Monitor.SetWALRecover).
	WALFailDegrade = wal.FailDegrade
)

// ErrWALDegraded marks write-ahead-log operations refused while the log
// is detached from a failing disk under WALFailDegrade. Ingestion itself
// does not return it — degraded ingestion succeeds in memory — but
// SyncWAL and Checkpoint surface it. Match with errors.Is.
var ErrWALDegraded = wal.ErrDegraded

// WALFS is the filesystem seam the write-ahead log performs all disk
// operations through (Config.Durability.FS). The default is the real
// filesystem; fault-injection harnesses substitute an implementation
// that fails on schedule (see internal/fault).
type WALFS = wal.FS

// DurabilityConfig enables write-ahead logging of admitted samples
// (Config.Durability). With a Dir set, every sample that passes the
// resilience guard is appended to a CRC-framed log segment BEFORE it is
// applied to the summary, so a crash between snapshots loses at most the
// unfsynced tail; Recover (or RecoverWatcher) restores the latest
// snapshot and replays the log over it. Snapshots taken with Checkpoint
// trim segments the snapshot has made redundant.
type DurabilityConfig struct {
	// Dir is the WAL segment directory. Empty disables durability.
	// New refuses a directory that already holds records — restarting a
	// durable deployment goes through Recover, which replays them.
	Dir string
	// Fsync selects the fsync policy (default FsyncInterval).
	Fsync FsyncPolicy
	// FsyncInterval is the FsyncInterval period (default 50ms).
	FsyncInterval time.Duration
	// SegmentBytes is the segment rotation threshold (default 4 MiB).
	SegmentBytes int
	// FailPolicy selects the persistent-disk-failure response (default
	// WALFailStop).
	FailPolicy WALFailPolicy
	// RetryAttempts is how many times a failed segment write is retried
	// with doubling backoff before FailPolicy applies (default 2;
	// negative disables retries). Failed fsyncs are never retried.
	RetryAttempts int
	// RetryBackoff is the sleep before the first write retry, doubling
	// per attempt (default 2ms).
	RetryBackoff time.Duration
	// ProbeInterval is the degraded-mode disk probe period (default
	// 500ms). WALFailDegrade only.
	ProbeInterval time.Duration
	// FS is the filesystem seam the log's disk operations go through
	// (default: the real filesystem). Fault-injection harnesses
	// substitute a failing implementation.
	FS WALFS
	// OnDegraded, when set, is called from its own goroutine with true
	// when the log detaches and false when it re-attaches.
	// WALFailDegrade only.
	OnDegraded func(degraded bool)
}

// ReplayStats summarizes one crash-recovery replay: records and samples
// re-applied, bytes read, segments visited, torn-tail bytes truncated and
// wall time. Returned by the Recover family and surfaced by the server's
// GET /statz.
type ReplayStats = wal.ReplayStats

// openWAL opens the log described by a DurabilityConfig, wiring it to the
// monitor's metrics.
func openWAL(d DurabilityConfig, m *obs.WALMetrics) (*wal.Log, error) {
	return wal.Open(wal.Config{
		Dir:           d.Dir,
		Policy:        d.Fsync,
		Interval:      d.FsyncInterval,
		SegmentBytes:  d.SegmentBytes,
		Metrics:       m,
		FS:            d.FS,
		Fail:          d.FailPolicy,
		RetryAttempts: d.RetryAttempts,
		RetryBackoff:  d.RetryBackoff,
		ProbeInterval: d.ProbeInterval,
		OnDegraded:    d.OnDegraded,
	})
}

// walAppend logs one admitted run before it is applied to the summary —
// the write-ahead ordering that makes replay exact. start is the discrete
// time the run's first value will occupy.
func (m *Monitor) walAppend(stream int, start int64, vs []float64) error {
	if _, err := m.wal.Append(stream, start, vs); err != nil {
		if errors.Is(err, wal.ErrDegraded) {
			// WALFailDegrade: the disk is gone but monitoring must not
			// stop. The run proceeds in memory only — counted by
			// stardust_wal_dropped_appends_total — and crash-safety
			// resumes with the re-attach catch-up checkpoint.
			return nil
		}
		return fmt.Errorf("stardust: wal append: %w", err)
	}
	return nil
}

// WALDegraded reports whether the write-ahead log is currently detached
// from a failing disk (WALFailDegrade): ingestion succeeds in memory but
// is not durable. Always false without durability.
func (m *Monitor) WALDegraded() bool {
	return m.wal != nil && m.wal.Degraded()
}

// SetWALRecover installs the degraded-recovery callback on the monitor's
// write-ahead log: once the disk probe sees a healthy disk again, fn runs
// and must persist a catch-up checkpoint and then re-attach the log, in
// that order, serialized against ingestion — SafeWatcher.ReattachWAL
// does exactly this. When no callback is installed the log
// re-attaches by itself and the degraded window stays uncheckpointed
// until the next snapshot. No-op without durability.
func (m *Monitor) SetWALRecover(fn func() error) {
	if m.wal != nil {
		m.wal.SetRecover(fn)
	}
}

// Durable reports whether the monitor write-ahead logs its ingestion.
func (m *Monitor) Durable() bool { return m.wal != nil }

// SyncWAL forces every ingested sample to stable storage, regardless of
// the fsync policy. No-op without durability.
func (m *Monitor) SyncWAL() error {
	if m.wal == nil {
		return nil
	}
	return m.wal.Sync()
}

// Close releases the monitor's durability resources: the WAL is fsynced
// and closed, so a clean shutdown loses nothing even under FsyncNone.
// Ingesting after Close fails. Monitors without durability Close as a
// no-op.
func (m *Monitor) Close() error {
	if m.wal == nil {
		return nil
	}
	return m.wal.Close()
}

// Checkpoint persists a snapshot to path crash-safely (WriteSnapshotFile)
// and then trims WAL segments the snapshot fully covers, bounding log
// growth. Without durability it is exactly WriteSnapshotFile.
func (m *Monitor) Checkpoint(path string) error {
	if m.wal == nil {
		return WriteSnapshotFile(m, path)
	}
	lsn := m.wal.LastLSN()
	if err := WriteSnapshotFile(m, path); err != nil {
		return err
	}
	if _, err := m.wal.TrimThrough(lsn); err != nil {
		return fmt.Errorf("stardust: trimming wal: %v", err)
	}
	return nil
}

// ReattachWAL ends write-ahead-log degraded mode under the write lock:
// when path is non-empty a catch-up checkpoint is persisted first —
// making the samples accepted while degraded crash-safe — and only then
// does the log re-attach to a fresh segment, so WALDegraded, /readyz and
// the stardust_wal_degraded gauge never report healthy while a crash
// could still lose the degraded window. A failed checkpoint leaves the
// log degraded (the disk probe retries). Wire it via SetWALRecover so it
// runs automatically when the disk probe sees recovery. No-op when the
// log is attached; nil without durability.
func (s *SafeWatcher) ReattachWAL(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.w.mon
	if m.wal == nil || !m.wal.Degraded() {
		return nil
	}
	// Reattach discards every old segment — the snapshot supersedes
	// them — so no trim follows.
	if path != "" {
		if err := WriteSnapshotFile(m, path); err != nil {
			return err
		}
	}
	return m.wal.Reattach()
}

// Close closes the wrapped monitor's WAL after in-flight pushes drain.
func (s *SafeWatcher) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.mon.Close()
}

// Checkpoint snapshots to path and trims the WAL (see
// Monitor.Checkpoint) under the write lock, so the snapshot cannot tear
// against concurrent ingestion and the trim watermark is exactly the
// snapshotted state.
func (s *SafeWatcher) Checkpoint(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.mon.Checkpoint(path)
}
