package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stardust/internal/obs"
)

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncInterval fsyncs from a background loop every Config.Interval —
	// a crash loses at most one interval of samples. The default.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs before Append returns. Concurrent appenders share
	// one fsync (group commit), so the cost amortizes under load.
	SyncAlways
	// SyncNone never fsyncs on the append path (only on rotation and
	// Close). A process crash loses nothing already written; an OS crash
	// loses whatever the page cache held.
	SyncNone
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncInterval:
		return "interval"
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// FailPolicy selects how the log responds when a disk operation keeps
// failing after the configured retries.
type FailPolicy int

const (
	// FailStop surfaces the error to the appender and keeps the log
	// attached: every subsequent append retries the disk. Ingestion
	// callers see the failure and decide; nothing is silently dropped.
	// The default.
	FailStop FailPolicy = iota
	// FailDegrade detaches the log: appends return ErrDegraded without
	// assigning LSNs (callers treat samples as in-memory only), a probe
	// loop watches the disk, and when it recovers the Config.Recover
	// callback runs — on success the log re-attaches to a fresh segment
	// (see Reattach) and durability resumes.
	FailDegrade
)

// String implements fmt.Stringer.
func (p FailPolicy) String() string {
	switch p {
	case FailStop:
		return "failstop"
	case FailDegrade:
		return "degrade"
	default:
		return fmt.Sprintf("FailPolicy(%d)", int(p))
	}
}

// Defaults for Config zero values.
const (
	DefaultInterval     = 50 * time.Millisecond
	DefaultSegmentBytes = 4 << 20
	// DefaultRetryAttempts is the number of times a failed segment write
	// is retried before the fail policy applies.
	DefaultRetryAttempts = 2
	// DefaultRetryBackoff is the sleep before the first write retry; it
	// doubles per attempt.
	DefaultRetryBackoff = 2 * time.Millisecond
	// DefaultProbeInterval is the degraded-mode disk probe period.
	DefaultProbeInterval = 500 * time.Millisecond
)

// Config configures a Log. Zero values select the documented defaults.
type Config struct {
	// Dir is the segment directory (required; created if absent).
	Dir string
	// Policy selects the fsync policy (default SyncInterval).
	Policy SyncPolicy
	// Interval is the SyncInterval period (default DefaultInterval).
	Interval time.Duration
	// SegmentBytes is the rotation threshold (default DefaultSegmentBytes).
	// A single record may exceed it; the segment then holds that record
	// alone.
	SegmentBytes int
	// Metrics receives append/fsync/segment instrumentation (optional).
	Metrics *obs.WALMetrics
	// FS is the filesystem seam all disk operations go through (default
	// OSFS). Tests substitute a fault-injecting implementation.
	FS FS
	// Fail selects the persistent-disk-failure response (default
	// FailStop).
	Fail FailPolicy
	// RetryAttempts is how many times a failed segment write is retried
	// with backoff before the fail policy applies (default
	// DefaultRetryAttempts; negative disables retries). Failed fsyncs are
	// never retried — after a failed fsync the kernel may have dropped
	// the dirty pages, so re-running it would report durability the data
	// does not have.
	RetryAttempts int
	// RetryBackoff is the sleep before the first retry, doubling per
	// attempt (default DefaultRetryBackoff).
	RetryBackoff time.Duration
	// ProbeInterval is the degraded-mode disk probe period (default
	// DefaultProbeInterval). FailDegrade only.
	ProbeInterval time.Duration
	// OnDegraded, when set, is called from its own goroutine with true on
	// degraded-mode entry and false on re-attach. FailDegrade only.
	OnDegraded func(degraded bool)
	// Recover, when set, runs once the degraded-mode probe sees a healthy
	// disk. It must persist a catch-up checkpoint and then call Reattach
	// itself, serialized against ingestion — that ordering makes the
	// samples ingested while degraded crash-safe before the log reports
	// healthy again (see Reattach).
	// When nil the probe loop calls Reattach directly; the degraded
	// window then stays uncheckpointed until the caller's next snapshot.
	// FailDegrade only.
	Recover func() error
}

// ErrClosed marks appends to a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrCorrupt marks corruption that replay cannot attribute to a torn
// final write: an invalid frame in the middle of the log. Match with
// errors.Is.
var ErrCorrupt = errors.New("wal: log corrupt")

// ErrDegraded marks operations refused while the log is detached from a
// failing disk (FailDegrade policy). Appends that return it assigned no
// LSN and wrote nothing; callers keep the sample in memory only. Match
// with errors.Is.
var ErrDegraded = errors.New("wal: degraded (disk unavailable, appends are dropped)")

// segment is one on-disk segment file; first is the LSN of its first
// record (records are numbered 1, 2, … across segments).
type segment struct {
	path  string
	first uint64
}

// Log is an append-only write-ahead log over size-rotated segment files.
// Append, Sync, TrimThrough and Close are safe for concurrent use; Replay
// must run before the first Append (the recovery sequence is Open →
// Replay → serve).
type Log struct {
	cfg Config
	fs  FS
	met atomic.Pointer[obs.WALMetrics]

	mu        sync.Mutex // guards the fields below
	f         File       // active segment (last of segs); nil while degraded
	size      int64      // bytes in the active segment
	segs      []segment  // ascending by first LSN
	nextLSN   uint64     // LSN assigned to the next record
	buf       []byte     // reusable frame-encoding buffer
	retention func(last uint64) uint64
	degraded  bool  // FailDegrade: detached from a failing disk
	failed    error // FailStop: sticky error after an unrecoverable write
	closing   bool
	closed    bool

	// Group commit state. Lock order: syncMu is never held while
	// acquiring mu (the sync leader releases syncMu before capturing the
	// write position, then re-acquires it to publish); mu → syncMu is the
	// allowed nesting.
	syncMu       sync.Mutex
	syncCond     *sync.Cond
	syncedLSN    uint64 // all records ≤ syncedLSN are durable
	syncing      bool   // a leader's fsync is in flight
	syncDegraded bool   // mirrors degraded for waiters parked on syncCond

	torn int64 // bytes truncated from the final segment at Open

	stop    chan struct{} // interval syncer lifecycle
	done    chan struct{}
	closeCh chan struct{} // closed once, at Close; stops the probe loop
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = DefaultSegmentBytes
	}
	if c.FS == nil {
		c.FS = OSFS{}
	}
	if c.RetryAttempts == 0 {
		c.RetryAttempts = DefaultRetryAttempts
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = DefaultRetryBackoff
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	return c
}

func segmentName(first uint64) string { return fmt.Sprintf("wal-%016x.seg", first) }

// parseSegmentName extracts the first-LSN from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	var first uint64
	if n, err := fmt.Sscanf(name, "wal-%016x.seg", &first); n != 1 || err != nil {
		return 0, false
	}
	return first, true
}

// newLog builds the in-memory shell shared by Open and OpenAt.
func newLog(cfg Config) *Log {
	l := &Log{cfg: cfg, fs: cfg.FS, closeCh: make(chan struct{})}
	l.met.Store(cfg.Metrics)
	l.syncCond = sync.NewCond(&l.syncMu)
	return l
}

// m returns the current metrics sink (nil disables instrumentation).
func (l *Log) m() *obs.WALMetrics { return l.met.Load() }

// start finalizes construction: publishes the synced watermark and kicks
// off the interval fsync loop when configured.
func (l *Log) start() {
	l.syncedLSN = l.nextLSN - 1 // everything on disk at open counts as synced
	if m := l.m(); m != nil {
		m.SegmentsLive.Set(int64(len(l.segs)))
	}
	if l.cfg.Policy == SyncInterval {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.syncLoop()
	}
}

// Open opens (or creates) the log in cfg.Dir and positions it for
// appending. A torn final record left by a crash is truncated away; the
// truncated byte count is reported by Torn. Records already in the log
// are read back with Replay before the first Append.
func Open(cfg Config) (*Log, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("wal: Config.Dir is required")
	}
	if err := cfg.FS.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %v", cfg.Dir, err)
	}
	l := newLog(cfg)

	entries, err := cfg.FS.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading %s: %v", cfg.Dir, err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if first, ok := parseSegmentName(e.Name()); ok {
			l.segs = append(l.segs, segment{path: filepath.Join(cfg.Dir, e.Name()), first: first})
		}
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].first < l.segs[j].first })

	if len(l.segs) == 0 {
		l.nextLSN = 1
		if err := l.openSegmentLocked(1); err != nil {
			return nil, err
		}
	} else {
		last := l.segs[len(l.segs)-1]
		records, validEnd, total, err := l.scanSegment(last.path)
		if err != nil {
			return nil, err
		}
		if validEnd < total {
			// Torn final record: truncate at the last valid frame so the
			// next append starts a clean frame boundary.
			if err := l.fs.Truncate(last.path, validEnd); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %v", last.path, err)
			}
			l.torn = total - validEnd
		}
		l.nextLSN = last.first + records
		f, err := l.fs.OpenFile(last.path, appendFlags, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: opening %s: %v", last.path, err)
		}
		l.f = f
		l.size = validEnd
	}
	l.start()
	return l, nil
}

// OpenAt creates a fresh log whose first record will carry LSN next,
// discarding any segments already in cfg.Dir. It is the replication
// mirror's constructor: a follower that bootstrapped from a snapshot at
// watermark W mirrors the stream into OpenAt(cfg, W+1), so the mirror's
// LSNs coincide with the primary's and promotion can serve it verbatim.
func OpenAt(cfg Config, next uint64) (*Log, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("wal: Config.Dir is required")
	}
	if next == 0 {
		return nil, fmt.Errorf("wal: OpenAt from LSN 0 (LSNs are 1-based)")
	}
	if err := cfg.FS.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %v", cfg.Dir, err)
	}
	entries, err := cfg.FS.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading %s: %v", cfg.Dir, err)
	}
	for _, e := range entries {
		if _, ok := parseSegmentName(e.Name()); !ok {
			continue
		}
		if err := cfg.FS.Remove(filepath.Join(cfg.Dir, e.Name())); err != nil {
			return nil, fmt.Errorf("wal: clearing stale segment: %v", err)
		}
	}
	l := newLog(cfg)
	l.nextLSN = next
	if err := l.openSegmentLocked(next); err != nil {
		return nil, err
	}
	l.start()
	return l, nil
}

// scanSegment walks a segment's frames, returning the record count, the
// offset of the last valid frame end, and the file size.
func (l *Log) scanSegment(path string) (records uint64, validEnd, total int64, err error) {
	data, err := l.fs.ReadFile(path)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wal: reading %s: %v", path, err)
	}
	off := 0
	for off < len(data) {
		_, n, ok := decodeFrame(data[off:])
		if !ok {
			break
		}
		off += n
		records++
	}
	return records, int64(off), int64(len(data)), nil
}

// openSegmentLocked creates the segment whose first record will be LSN
// first and makes it active. Caller holds mu (or is in Open/OpenAt,
// single threaded).
func (l *Log) openSegmentLocked(first uint64) error {
	path := filepath.Join(l.cfg.Dir, segmentName(first))
	f, err := l.fs.OpenFile(path, createFlags, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment %s: %w", path, err)
	}
	l.f = f
	l.size = 0
	l.segs = append(l.segs, segment{path: path, first: first})
	if m := l.m(); m != nil {
		m.SegmentsLive.Set(int64(len(l.segs)))
	}
	return nil
}

// Torn returns the bytes truncated from the final segment at Open (0 when
// the log ended on a clean frame boundary).
func (l *Log) Torn() int64 { return l.torn }

// Dir returns the segment directory.
func (l *Log) Dir() string { return l.cfg.Dir }

// Policy returns the configured fsync policy.
func (l *Log) Policy() SyncPolicy { return l.cfg.Policy }

// LastLSN returns the sequence number of the most recent record (0 when
// the log is empty).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// SegmentCount returns the number of live segment files.
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Degraded reports whether the log is currently detached from a failing
// disk (FailDegrade policy).
func (l *Log) Degraded() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.degraded
}

// SetMetrics redirects instrumentation to m (nil disables it) and seeds
// the point-in-time gauges. A promoted replication mirror calls it so the
// mirror's segments and appends surface through the monitor's metrics.
func (l *Log) SetMetrics(m *obs.WALMetrics) {
	l.met.Store(m)
	if m == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	m.SegmentsLive.Set(int64(len(l.segs)))
	if l.degraded {
		m.Degraded.Set(1)
	}
}

// SetRetention installs a floor callback consulted by TrimThrough: it
// receives the log's last LSN and, when it returns a nonzero LSN,
// segments holding records at or above that LSN are kept regardless of
// the snapshot watermark. The replication primary uses it to keep the
// records its connected followers still need, so a checkpoint does not
// force them through a 410-Gone re-bootstrap. The callback runs with the
// log's lock held and must not call back into the log.
func (l *Log) SetRetention(floor func(last uint64) uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.retention = floor
}

// activePathLocked returns the path of the active segment. Caller holds
// mu; panics if no segment is open (callers check degraded first).
func (l *Log) activePathLocked() string { return l.segs[len(l.segs)-1].path }

// writeFrameLocked appends buf to the active segment, retrying transient
// failures with exponential backoff. A failed attempt truncates the
// segment back to its pre-write size first, so a partially transferred
// frame can never become mid-log garbage once later appends succeed. The
// returned error is nil only after a complete write; a non-nil second
// return reports that the truncate itself failed and the segment tail is
// unclean (unrecoverable in place). Caller holds mu.
func (l *Log) writeFrameLocked(buf []byte) (werr error, unclean error) {
	backoff := l.cfg.RetryBackoff
	for attempt := 0; ; attempt++ {
		n, err := l.f.Write(buf)
		if err == nil && n == len(buf) {
			l.size += int64(n)
			return nil, nil
		}
		if err == nil {
			err = fmt.Errorf("short write (%d of %d bytes)", n, len(buf))
		}
		if n > 0 {
			// The file may now hold a torn frame; cut it back to the last
			// clean boundary (O_APPEND resumes at the new end).
			if terr := l.fs.Truncate(l.activePathLocked(), l.size); terr != nil {
				return err, terr
			}
		}
		if attempt >= l.cfg.RetryAttempts {
			return err, nil
		}
		if m := l.m(); m != nil {
			m.WriteRetries.Inc()
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}

// Append frames one run of admitted samples — Values[i] at discrete time
// start+i on the stream — writes it to the active segment, and returns
// its LSN. Under SyncAlways the record is durable when Append returns;
// concurrent appenders share one fsync. Under SyncInterval and SyncNone
// Append returns after the write syscall.
//
// Transient write failures are retried per Config.RetryAttempts. When the
// disk stays broken the fail policy applies: FailStop returns the error
// (and the next Append tries the disk again), FailDegrade detaches the
// log and returns ErrDegraded — no LSN was assigned, and every Append
// until re-attach drops its record the same way.
func (l *Log) Append(stream int, start int64, vs []float64) (uint64, error) {
	l.mu.Lock()
	if l.closed || l.closing {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return 0, err
	}
	if l.degraded {
		if m := l.m(); m != nil {
			m.DroppedAppends.Inc()
		}
		l.mu.Unlock()
		return 0, ErrDegraded
	}
	l.buf = appendRecord(l.buf[:0], stream, start, vs)
	frameLen := len(l.buf)
	werr, unclean := l.writeFrameLocked(l.buf)
	if werr != nil {
		err := l.failWriteLocked(werr, unclean)
		l.mu.Unlock()
		return 0, err
	}
	lsn := l.nextLSN
	l.nextLSN++
	if m := l.m(); m != nil {
		m.Appends.Inc()
		m.AppendedBytes.Add(int64(frameLen))
	}
	if l.size >= int64(l.cfg.SegmentBytes) {
		if err := l.rotateLocked(); err != nil {
			l.mu.Unlock()
			return lsn, err
		}
	}
	l.mu.Unlock()

	if l.cfg.Policy == SyncAlways {
		return lsn, l.waitDurable(lsn)
	}
	return lsn, nil
}

// failWriteLocked applies the fail policy to an exhausted write: under
// FailDegrade the log detaches and the caller gets ErrDegraded; under
// FailStop the error surfaces, turning sticky when the segment tail could
// not be cleaned (unclean non-nil — appending past a torn frame would
// corrupt the log). Caller holds mu.
func (l *Log) failWriteLocked(werr, unclean error) error {
	if l.cfg.Fail == FailDegrade {
		l.enterDegradedLocked()
		if m := l.m(); m != nil {
			m.DroppedAppends.Inc()
		}
		return fmt.Errorf("%w: %v", ErrDegraded, werr)
	}
	if unclean != nil {
		l.failed = fmt.Errorf("wal: segment tail unclean after failed write (%v; truncate: %v)", werr, unclean)
		if l.f != nil {
			l.f.Close()
			l.f = nil
		}
		return l.failed
	}
	return fmt.Errorf("wal: appending record: %w", werr)
}

// enterDegradedLocked detaches the log from the failing disk: the active
// file is closed, subsequent appends drop their records with ErrDegraded,
// group-commit waiters are released with the same error, and a probe loop
// starts watching for disk recovery. Idempotent. Caller holds mu.
func (l *Log) enterDegradedLocked() {
	if l.degraded {
		return
	}
	l.degraded = true
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	if m := l.m(); m != nil {
		m.Degraded.Set(1)
	}
	l.syncMu.Lock()
	l.syncDegraded = true
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
	if fn := l.cfg.OnDegraded; fn != nil {
		go fn(true)
	}
	go l.probeLoop()
}

// probeLoop runs while the log is degraded: every ProbeInterval it writes,
// fsyncs and removes a probe file through the FS seam; once that succeeds
// it runs the Recover callback (or Reattach directly) and exits when the
// log is attached again.
func (l *Log) probeLoop() {
	ticker := time.NewTicker(l.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-l.closeCh:
			return
		case <-ticker.C:
		}
		l.mu.Lock()
		active := l.degraded && !l.closed && !l.closing
		fn := l.cfg.Recover
		l.mu.Unlock()
		if !active {
			return
		}
		if !l.probeDisk() {
			continue
		}
		if fn != nil {
			if err := fn(); err != nil {
				continue // still broken somewhere; keep probing
			}
		} else if err := l.Reattach(); err != nil {
			continue
		}
		if !l.Degraded() {
			return
		}
	}
}

// SetRecover installs (or replaces) the degraded-recovery callback after
// Open — see Config.Recover for its contract. The server wires its
// checkpoint path here once it exists, since the log is opened before the
// server. Safe to call concurrently with appends; a probe iteration
// already past its callback lookup still runs the previous value once.
func (l *Log) SetRecover(fn func() error) {
	l.mu.Lock()
	l.cfg.Recover = fn
	l.mu.Unlock()
}

// probeDisk reports whether a full write-fsync-remove cycle succeeds in
// the segment directory.
func (l *Log) probeDisk() bool {
	path := filepath.Join(l.cfg.Dir, "wal.probe")
	f, err := l.fs.OpenFile(path, probeFlags, 0o644)
	if err != nil {
		return false
	}
	_, werr := f.Write([]byte("stardust-wal-probe"))
	serr := f.Sync()
	cerr := f.Close()
	rerr := l.fs.Remove(path)
	return werr == nil && serr == nil && cerr == nil && rerr == nil
}

// Reattach ends degraded mode after the disk recovers: every old segment
// file is discarded, a fresh segment is opened, and appends resume with
// full durability. The LSN sequence advances by one without a record, so
// a replication follower positioned inside the discarded range observes
// ErrTrimmed (410 Gone) and re-bootstraps from the post-recovery snapshot
// instead of silently missing the samples that were dropped while
// degraded.
//
// The records ingested while degraded exist only in monitor memory; the
// Config.Recover callback is expected to persist a catch-up checkpoint
// first and only then call Reattach, serialized against ingestion, so
// that a later crash recovers them from the checkpoint and the log never
// reports healthy while they are still memory-only (a crash in between
// replays the old segments over the checkpoint idempotently). Reattach
// on an attached log is a no-op.
func (l *Log) Reattach() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.closing {
		return ErrClosed
	}
	if !l.degraded {
		return nil
	}
	for _, s := range l.segs {
		_ = l.fs.Remove(s.path) // best effort: stale segments are superseded by the checkpoint
	}
	l.segs = l.segs[:0]
	// Advance past the dropped window so followers' next request falls
	// below FirstLSN and forces a re-bootstrap. Each failed re-attach
	// attempt advances again, which also keeps the segment name fresh.
	l.nextLSN++
	if err := l.openSegmentLocked(l.nextLSN); err != nil {
		return fmt.Errorf("wal: reattach: %w", err)
	}
	l.degraded = false
	l.failed = nil
	if m := l.m(); m != nil {
		m.Degraded.Set(0)
		m.Reattaches.Inc()
	}
	l.syncMu.Lock()
	l.syncDegraded = false
	l.syncedLSN = l.nextLSN - 1
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
	if fn := l.cfg.OnDegraded; fn != nil {
		go fn(false)
	}
	return nil
}

// rotateLocked seals the active segment (fsync + close) and opens the
// next one. Caller holds mu.
func (l *Log) rotateLocked() error {
	err := l.f.Sync()
	if err == nil {
		err = l.f.Close()
	}
	if err != nil {
		if l.cfg.Fail == FailDegrade {
			l.enterDegradedLocked()
			return fmt.Errorf("%w: sealing segment: %v", ErrDegraded, err)
		}
		return fmt.Errorf("wal: sealing segment: %v", err)
	}
	if m := l.m(); m != nil {
		m.Rotations.Inc()
	}
	if err := l.openSegmentLocked(l.nextLSN); err != nil {
		if l.cfg.Fail == FailDegrade {
			l.enterDegradedLocked()
			return fmt.Errorf("%w: %v", ErrDegraded, err)
		}
		return err
	}
	return nil
}

// waitDurable blocks until every record up to lsn is fsynced, electing
// one caller as the group-commit leader: the leader fsyncs the active
// segment once for every record written so far, and concurrent callers
// whose records that fsync covers return without issuing their own.
// Waiters parked when the log degrades are released with ErrDegraded.
func (l *Log) waitDurable(lsn uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	for {
		if l.syncedLSN >= lsn {
			return nil
		}
		if l.syncDegraded {
			return ErrDegraded
		}
		if l.syncing {
			l.syncCond.Wait()
			continue
		}
		// Become the leader for this round.
		l.syncing = true
		prev := l.syncedLSN
		l.syncMu.Unlock()

		l.mu.Lock()
		f := l.f
		covered := l.nextLSN - 1
		closed := l.closed
		degraded := l.degraded
		l.mu.Unlock()

		var err error
		switch {
		case closed:
			err = ErrClosed
		case degraded, f == nil:
			err = ErrDegraded
		default:
			start := time.Now()
			err = f.Sync()
			if m := l.m(); m != nil {
				m.Fsyncs.Inc()
				m.FsyncNanos.Observe(float64(time.Since(start)))
				if err == nil && covered > prev {
					m.GroupCommit.Observe(float64(covered - prev))
				}
			}
			if err != nil && l.cfg.Fail == FailDegrade {
				// A failed fsync means the kernel may have dropped the dirty
				// pages — no retry can restore durability (so none is
				// attempted); detach instead.
				l.mu.Lock()
				l.enterDegradedLocked()
				l.mu.Unlock()
				err = fmt.Errorf("%w: %v", ErrDegraded, err)
			}
		}

		l.syncMu.Lock()
		l.syncing = false
		if err == nil && covered > l.syncedLSN {
			l.syncedLSN = covered
		}
		l.syncCond.Broadcast()
		if err != nil {
			return err
		}
		// Loop: our lsn was written before the leader captured covered, so
		// the next check succeeds (or a rotation-interleaved round retries).
	}
}

// Sync makes every record appended before the call durable. It is the
// manual flush used on graceful shutdown and by the interval loop. While
// the log is degraded it fails with ErrDegraded.
func (l *Log) Sync() error {
	l.mu.Lock()
	target := l.nextLSN - 1
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if target == 0 {
		return nil
	}
	return l.waitDurable(target)
}

// syncLoop is the SyncInterval background fsync driver.
func (l *Log) syncLoop() {
	defer close(l.done)
	ticker := time.NewTicker(l.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-ticker.C:
			// Errors surface on the final Sync in Close; the loop keeps
			// trying so a transient failure does not end durability.
			_ = l.Sync()
		}
	}
}

// TrimThrough removes segments whose records are all ≤ lsn — the
// snapshot-watermark GC: after a snapshot covering everything up to lsn
// succeeds, those segments can never be needed by recovery again. The
// watermark is clamped below the SetRetention floor when one is
// installed, so records a connected follower still needs survive the
// trim. The active segment is never removed, and a degraded log trims
// nothing. Returns the number of segments deleted.
func (l *Log) TrimThrough(lsn uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.degraded {
		return 0, nil // re-attach discards the segments wholesale
	}
	if l.retention != nil {
		if floor := l.retention(l.nextLSN - 1); floor > 0 && floor-1 < lsn {
			lsn = floor - 1
		}
	}
	removed := 0
	for len(l.segs) > 1 && l.segs[1].first-1 <= lsn {
		if err := l.fs.Remove(l.segs[0].path); err != nil {
			return removed, fmt.Errorf("wal: trimming %s: %v", l.segs[0].path, err)
		}
		l.segs = l.segs[1:]
		removed++
	}
	if m := l.m(); m != nil && removed > 0 {
		m.SegmentsTrimmed.Add(int64(removed))
		m.SegmentsLive.Set(int64(len(l.segs)))
	}
	return removed, nil
}

// Close flushes, fsyncs and closes the log. Appends after Close fail with
// ErrClosed. Closing a degraded log skips the final sync (there is no
// attached disk to flush) and returns nil. Close is idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed || l.closing {
		l.mu.Unlock()
		return nil
	}
	l.closing = true
	degraded := l.degraded
	l.mu.Unlock()
	close(l.closeCh)

	// Stop the interval loop first so it cannot race the final sync.
	if l.stop != nil {
		close(l.stop)
		<-l.done
		l.stop = nil
	}
	var syncErr error
	if !degraded {
		syncErr = l.Sync()
		if errors.Is(syncErr, ErrDegraded) {
			syncErr = nil // degraded mid-close: nothing left to flush
		}
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	if l.f != nil {
		if err := l.f.Close(); err != nil && syncErr == nil {
			syncErr = fmt.Errorf("wal: closing segment: %v", err)
		}
		l.f = nil
	}
	// Wake any group-commit waiters so they observe closed and fail fast.
	l.syncMu.Lock()
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
	return syncErr
}
