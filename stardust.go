// Package stardust is a unified framework for monitoring data streams in
// real time, reproducing Bulut & Singh (ICDE 2005). A Monitor summarizes
// any number of streams at multiple resolutions — sliding windows of size
// W, 2W, 4W, ... — computing features (SUM, MAX, MIN, SPREAD aggregates or
// wavelet coefficients) incrementally: each level's feature is derived from
// the level below in O(f) time, and consecutive features are grouped into
// minimum bounding rectangles indexed in per-level R*-trees. On top of the
// summary run three query classes with provable no-false-dismissal bounds:
//
//   - aggregate monitoring: "alert when the sum/spread over ANY window from
//     minutes to days crosses its threshold" (CheckAggregate);
//   - pattern monitoring: "find streams whose recent history matches this
//     shape", for query lengths unknown a priori (FindPattern);
//   - correlation monitoring: "report stream pairs whose current windows
//     are correlated above r" (Correlations).
//
// Every reported alarm, match or pair is first screened by the
// multi-resolution index and then verified against retained raw history, so
// results carry no false positives; the index tuning knobs (box capacity c,
// update rate T) trade screening precision for space and per-item time as
// analyzed in the paper.
package stardust

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"stardust/internal/aggregate"
	"stardust/internal/core"
	"stardust/internal/obs"
	"stardust/internal/resilience"
	"stardust/internal/wal"
	"stardust/internal/wavelet"
)

// Transform selects the feature transformation applied to stream windows.
type Transform = core.Transform

// Available transforms.
const (
	// Sum monitors moving sums (burst detection).
	Sum = core.TransformSum
	// Max monitors moving maxima.
	Max = core.TransformMax
	// Min monitors moving minima.
	Min = core.TransformMin
	// Spread monitors MAX−MIN (volatility detection).
	Spread = core.TransformSpread
	// DWT extracts leading wavelet coefficients (pattern and correlation
	// monitoring).
	DWT = core.TransformDWT
)

// Normalization selects window normalization for DWT features.
type Normalization = core.Normalization

// Available normalizations.
const (
	// NormNone indexes raw-signal coefficients.
	NormNone = core.NormNone
	// NormUnit maps windows to the unit hyper-sphere (pattern queries).
	NormUnit = core.NormUnit
	// NormZ z-normalizes windows (correlation queries); implies direct
	// batch computation.
	NormZ = core.NormZ
)

// Result and payload types of the three query classes.
type (
	// AggregateResult is one aggregate monitoring check: interval bound,
	// candidate flag, verified alarm and exact value.
	AggregateResult = core.AggregateResult
	// Interval is a closed interval bounding a scalar aggregate.
	Interval = aggregate.Interval
	// Match identifies a stream subsequence matched by a pattern query.
	Match = core.Match
	// PatternResult carries a pattern query's candidates and verified
	// matches.
	PatternResult = core.PatternResult
	// CorrPair is one correlated stream pair.
	CorrPair = core.CorrPair
	// CorrelationResult carries a correlation round's candidates and
	// verified pairs.
	CorrelationResult = core.CorrelationResult
	// Stats is a space-usage snapshot of the summary (Theorem 4.3's
	// quantity).
	Stats = core.Stats
	// LevelStats describes one resolution level in a Stats snapshot.
	LevelStats = core.LevelStats
)

// Ingestion resilience surface (see internal/resilience): Ingest and
// IngestAll route every sample through a Guard that converts malformed
// input into typed errors and optionally repairs it.
type (
	// GuardPolicy selects how non-finite samples are handled at ingestion.
	GuardPolicy = resilience.Policy
	// GuardConfig configures the ingestion guard (Config.BadValues).
	GuardConfig = resilience.Config
	// IngestStats reports the guard's accept/repair/reject counters and
	// quarantine state; surfaced via Stats().Ingest.
	IngestStats = resilience.IngestStats
)

// Available bad-value policies.
const (
	// RejectBad drops non-finite samples with ErrBadValue (default).
	RejectBad = resilience.Reject
	// ClampBad repairs infinities (and finite out-of-range values) to the
	// configured clamp bounds; NaN is still rejected.
	ClampBad = resilience.Clamp
	// LastValueBad gap-fills non-finite samples with the stream's most
	// recent admitted value.
	LastValueBad = resilience.LastValue
)

// Observability surface (see internal/obs): every monitor carries an
// always-on, low-overhead metrics set covering ingestion latency, R*-tree
// node accesses and per-query-class candidate/verified counts — the
// quantities the paper's cost model is stated in. Snapshot it with
// Monitor.Metrics(), or scrape the server's GET /metricsz endpoint.
type (
	// MetricsSnapshot is a point-in-time copy of a monitor's metrics.
	MetricsSnapshot = obs.Snapshot
	// IngestMetricsSnapshot is the ingestion section: guard counters plus
	// the sampled per-append latency distribution.
	IngestMetricsSnapshot = obs.IngestSnapshot
	// TreeMetricsSnapshot sums R*-tree node accesses, splits and
	// reinsertions over all resolution levels.
	TreeMetricsSnapshot = obs.TreeSnapshot
	// QueryMetricsSnapshot covers one query class: invocations, screened
	// candidates, verified results (PruningPower = Verified/Candidates, the
	// paper's precision) and query latency.
	QueryMetricsSnapshot = obs.QuerySnapshot
	// HistogramSnapshot is a bounded histogram copy with P50/P95/P99
	// estimators.
	HistogramSnapshot = obs.HistogramSnapshot
)

// Typed ingestion errors, matched with errors.Is.
var (
	// ErrBadValue marks an inadmissible sample the policy could not repair.
	ErrBadValue = resilience.ErrBadValue
	// ErrStreamRange marks a stream id outside [0, NumStreams).
	ErrStreamRange = resilience.ErrStreamRange
	// ErrQuarantined marks a sample dropped because its stream tripped the
	// consecutive-bad-value quarantine.
	ErrQuarantined = resilience.ErrQuarantined
)

// Mode selects the index maintenance algorithm of Section 4.
type Mode int

const (
	// Online computes a feature per arrival (T = 1) with box capacity c;
	// the choice for aggregate monitoring.
	Online Mode = iota
	// Batch computes a feature every W arrivals (T = W) with capacity 1;
	// the choice for pattern and correlation monitoring.
	Batch
	// SWAT uses the per-level rates T_j = 2^j of the authors' earlier
	// system.
	SWAT
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Online:
		return "online"
	case Batch:
		return "batch"
	case SWAT:
		return "swat"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParallelConfig configures the query-stage worker pool. The
// candidate-screening and verification stages of Correlations,
// LaggedCorrelations, FindPattern and NearestPatterns decompose into
// independent work items (per-stream index probes, per-candidate radius
// refinement and raw-history verification) that fan out across Workers
// goroutines; per-worker results merge deterministically, so parallel
// output is byte-identical to the serial path (see DESIGN.md, "Parallel
// execution").
type ParallelConfig struct {
	// Workers is the fan-out width. 0 selects runtime.NumCPU(); 1 selects
	// today's serial path.
	Workers int
}

// Config configures a Monitor. Zero values select documented defaults.
type Config struct {
	// Streams is the number of monitored streams (required).
	Streams int
	// W is the window size at the lowest resolution (required; a power of
	// two for DWT).
	W int
	// Levels is the number of resolutions; level j covers windows of size
	// W·2^j (required).
	Levels int
	// Transform selects the feature function (default Sum).
	Transform Transform
	// Mode selects online, batch, or SWAT maintenance (default Online).
	Mode Mode
	// BoxCapacity is c, the features grouped per MBR (default 1; > 1 is
	// only meaningful in Online mode).
	BoxCapacity int
	// Coefficients is f, the DWT coefficients kept per feature (DWT only;
	// default 2).
	Coefficients int
	// Normalization applies to DWT windows (default NormNone).
	Normalization Normalization
	// Rmax is the known value-range bound used by NormUnit.
	Rmax float64
	// History is the raw values retained per stream for verification
	// (default twice the largest window).
	History int
	// Daubechies selects the D4 filter instead of Haar (requires Batch
	// mode, where features are computed directly per window).
	Daubechies bool
	// OnlineI enables the exact-corner MBR wavelet transform (Appendix A
	// Online I) instead of the Θ(f) bound.
	OnlineI bool
	// DisableIndex skips the cross-stream indexes. Aggregate monitoring
	// never consults them, so aggregate-only deployments save all index
	// maintenance; pattern queries and lagged correlations require the
	// index and must leave this off.
	DisableIndex bool
	// BadValues configures the ingestion guard applied by Ingest,
	// IngestAll and Watcher.Push (and, for repairs, Append). The zero
	// value rejects non-finite samples and quarantines a stream after
	// resilience.DefaultQuarantineAfter consecutive bad values.
	BadValues GuardConfig
	// Parallel configures the query-stage worker pool. The zero value
	// selects runtime.NumCPU() workers; Workers: 1 forces serial
	// execution. Results are identical either way.
	Parallel ParallelConfig
	// Durability enables write-ahead logging of admitted samples, so a
	// crash between snapshots is recoverable with Recover. The zero value
	// (no Dir) disables the log.
	Durability DurabilityConfig
}

// Monitor is the Stardust summary over a set of streams. Monitors are not
// safe for concurrent use; wrap with a mutex or shard streams across
// monitors for parallel ingest.
type Monitor struct {
	sum     *core.Summary
	mode    Mode
	guard   *resilience.Guard
	metrics *obs.Metrics
	wal     *wal.Log
	walOne  [1]float64 // scratch run for single-sample WAL appends
}

// New constructs a Monitor. With Config.Durability set, a fresh
// write-ahead log is opened in its directory; a directory that already
// holds WAL records is refused (those records belong to a previous run —
// restart through Recover, which replays them, instead of silently
// orphaning them).
func New(cfg Config) (*Monitor, error) {
	m, err := newMonitor(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Durability.Dir != "" {
		log, err := openWAL(cfg.Durability, &m.metrics.WAL)
		if err != nil {
			return nil, fmt.Errorf("stardust: %v", err)
		}
		if last := log.LastLSN(); last > 0 {
			log.Close()
			return nil, fmt.Errorf("stardust: WAL directory %s already holds %d records; use Recover to replay them",
				cfg.Durability.Dir, last)
		}
		m.wal = log
	}
	return m, nil
}

// newMonitor builds the monitor without touching the WAL directory — the
// shared core of New and the Recover family.
func newMonitor(cfg Config) (*Monitor, error) {
	if cfg.Streams <= 0 {
		return nil, fmt.Errorf("stardust: Streams must be positive, got %d", cfg.Streams)
	}
	ccfg := core.Config{
		W:             cfg.W,
		Levels:        cfg.Levels,
		BoxCapacity:   cfg.BoxCapacity,
		Transform:     cfg.Transform,
		F:             cfg.Coefficients,
		Normalization: cfg.Normalization,
		Rmax:          cfg.Rmax,
		OnlineI:       cfg.OnlineI,
		HistoryN:      cfg.History,
		DisableIndex:  cfg.DisableIndex,
	}
	switch cfg.Mode {
	case Online:
		ccfg.Rate = core.RateOnline
	case Batch:
		ccfg.Rate = core.RateBatch(cfg.W)
		if ccfg.BoxCapacity == 0 {
			ccfg.BoxCapacity = 1
		}
		// Z-normalized Haar features at capacity 1 use the single-pass
		// composite merge (Θ(f) per level); everything else computes
		// batch features directly per window.
		composite := cfg.Transform == DWT && cfg.Normalization == NormZ &&
			!cfg.Daubechies && ccfg.BoxCapacity == 1
		ccfg.Direct = !composite
	case SWAT:
		ccfg.Rate = core.RateSWAT
	default:
		return nil, fmt.Errorf("stardust: unknown mode %v", cfg.Mode)
	}
	if cfg.Daubechies {
		if cfg.Mode != Batch {
			return nil, fmt.Errorf("stardust: the Daubechies filter requires Batch mode")
		}
		ccfg.Filter = wavelet.Daubechies4()
	}
	sum, err := core.NewSummary(ccfg, cfg.Streams)
	if err != nil {
		return nil, fmt.Errorf("stardust: %v", err)
	}
	metrics := obs.NewMetrics()
	sum.SetMetrics(metrics)
	sum.SetParallel(defaultWorkers(cfg.Parallel.Workers))
	return &Monitor{
		sum:     sum,
		mode:    cfg.Mode,
		guard:   resilience.NewGuard(cfg.BadValues, cfg.Streams),
		metrics: metrics,
	}, nil
}

// defaultWorkers resolves a ParallelConfig.Workers value: 0 (or negative)
// selects one worker per CPU.
func defaultWorkers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// SetParallelism reconfigures the query worker pool at runtime (n ≤ 0
// selects runtime.NumCPU(), 1 the serial path). Queries already in flight
// finish on the pool width they started with; restored monitors (Load)
// default to NumCPU like New.
func (m *Monitor) SetParallelism(n int) { m.sum.SetParallel(defaultWorkers(n)) }

// Parallelism returns the configured query worker count.
func (m *Monitor) Parallelism() int { return m.sum.Workers() }

// Ingest ingests one value through the resilience guard. Inadmissible
// samples return a typed error — ErrStreamRange, ErrBadValue, or
// ErrQuarantined — instead of panicking, and repairable ones (per the
// configured bad-value policy) are repaired before appending. On error the
// stream's clock does not advance.
func (m *Monitor) Ingest(stream int, v float64) error {
	run, err := m.admitOne(stream, v)
	m.appendRun(stream, run, m.metrics.Ingest.Samples.Load())
	return err
}

// IngestBatch ingests a run of consecutive values for one stream — the
// amortized fast path for bulk and replay ingestion. It is equivalent to
// calling Ingest once per value (inadmissible samples are skipped with
// their typed errors joined into the return value; admitted samples
// advance the clock in order) but hoists the per-sample overheads:
// metrics accounting, the latency clock, the stream lookup and the
// eviction pass run once per batch, and the summary appends the whole
// admitted run without re-entering the guard path. The R*-tree is still
// updated once per completed feature — never per value.
func (m *Monitor) IngestBatch(stream int, vs []float64) error {
	run, err := m.admitBatch(stream, vs)
	m.appendRun(stream, run, m.metrics.Ingest.Samples.Load())
	return err
}

// admitOne runs one value through the guard and write-ahead logs it,
// returning the admitted run (empty on rejection) for the caller to
// apply. The run aliases scratch space valid until the next admission.
func (m *Monitor) admitOne(stream int, v float64) ([]float64, error) {
	m.metrics.Ingest.Samples.Inc()
	admitted, err := m.guard.Admit(stream, v)
	if err != nil {
		return nil, err
	}
	m.walOne[0] = admitted
	// Write-ahead ordering: the admitted sample reaches the log before the
	// summary, so every state transition a crash can lose is replayable.
	if err := m.logRun(stream, m.walOne[:]); err != nil {
		return nil, err
	}
	return m.walOne[:], nil
}

// admitBatch runs a batch through the guard, skipping inadmissible
// samples and joining their errors, and write-ahead logs the admitted
// run as ONE record: one frame, one write syscall, and (under
// FsyncAlways) one fsync for the batch. A failed log append returns no
// run, so nothing unlogged is applied.
func (m *Monitor) admitBatch(stream int, vs []float64) ([]float64, error) {
	if len(vs) == 0 {
		return nil, nil
	}
	m.metrics.Ingest.Samples.Add(int64(len(vs)))
	m.metrics.Ingest.Batches.Inc()
	m.metrics.Ingest.BatchSize.Observe(float64(len(vs)))
	var errs []error
	admitted := make([]float64, 0, len(vs))
	for _, v := range vs {
		a, err := m.guard.Admit(stream, v)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		admitted = append(admitted, a)
	}
	if len(admitted) > 0 {
		if err := m.logRun(stream, admitted); err != nil {
			return nil, errors.Join(append(errs, err)...)
		}
	}
	return admitted, errors.Join(errs...)
}

// logRun write-ahead logs an admitted run about to be appended to
// stream (no-op without durability).
func (m *Monitor) logRun(stream int, run []float64) error {
	if m.wal == nil {
		return nil
	}
	return m.walAppend(stream, m.sum.Now(stream)+1, run)
}

// appendRun appends an admitted run to the summary; end is the
// cumulative ingestion count at the run's last sample. Per-append latency
// is sampled (one sample in obs.SampleEvery is timed, so the two clock
// reads stay off the common path): when the run crosses a sampling
// point, the whole run is timed once and recorded as its per-sample
// average.
func (m *Monitor) appendRun(stream int, run []float64, end int64) {
	if !obs.SampledBatch(end, int64(len(run))) {
		m.sum.AppendBatch(stream, run)
		return
	}
	start := time.Now()
	m.sum.AppendBatch(stream, run)
	m.metrics.Ingest.AppendNanos.Observe(float64(time.Since(start)) / float64(len(run)))
}

// IngestAll ingests one synchronized arrival across all streams through the
// guard. Streams whose values are rejected skip this tick (their clocks
// fall behind the others); the errors are joined and returned after every
// stream has been attempted. A length mismatch fails up front with
// ErrStreamRange.
func (m *Monitor) IngestAll(vs []float64) error {
	if len(vs) != m.NumStreams() {
		return fmt.Errorf("stardust: %w: IngestAll got %d values for %d streams",
			ErrStreamRange, len(vs), m.NumStreams())
	}
	var errs []error
	for i, v := range vs {
		if err := m.Ingest(i, v); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// AddStream registers a new empty stream and returns its id.
func (m *Monitor) AddStream() int {
	id := m.sum.AddStream()
	m.guard.Grow()
	return id
}

// SetBadValuePolicy replaces the ingestion guard, resetting its counters
// and per-stream repair state. Monitors restored with Load start with the
// default (Reject) guard; call this to re-apply a deployment's policy.
func (m *Monitor) SetBadValuePolicy(cfg GuardConfig) {
	m.guard = resilience.NewGuard(cfg, m.sum.NumStreams())
}

// Quarantined reports whether the stream is currently quarantined by the
// ingestion guard.
func (m *Monitor) Quarantined(stream int) bool { return m.guard.Quarantined(stream) }

// Now returns the discrete time of the stream's most recent value (−1
// before any value).
func (m *Monitor) Now(stream int) int64 { return m.sum.Now(stream) }

// NumStreams returns the number of monitored streams.
func (m *Monitor) NumStreams() int { return m.sum.NumStreams() }

// CheckAggregate runs one aggregate monitoring check (Algorithm 2) over the
// most recent window of the given size: the multi-resolution bound is
// composed from sub-window MBRs and, when its upper end crosses the
// threshold, verified against raw history. The window must be a multiple
// of W decomposable within the configured levels.
func (m *Monitor) CheckAggregate(stream, window int, threshold float64) (AggregateResult, error) {
	return m.checkAggregateVerified(stream, window, threshold, nil)
}

// checkAggregateVerified is CheckAggregate with a caller-supplied exact
// verifier (see core.Summary.AggregateQueryVerified) — the watcher's
// worst-case O(1) verification path. Metrics accounting is identical to
// CheckAggregate: candidates and verified alarms count the same whichever
// verifier answered.
func (m *Monitor) checkAggregateVerified(stream, window int, threshold float64, exact func() (float64, bool)) (AggregateResult, error) {
	start := time.Now()
	res, err := m.sum.AggregateQueryVerified(stream, window, threshold, exact)
	cand, verified := 0, 0
	if res.Candidate {
		cand = 1
	}
	if res.Alarm {
		verified = 1
	}
	m.metrics.Aggregate.ObserveQuery(cand, verified, int64(time.Since(start)))
	return res, err
}

// AggregateBound returns the interval guaranteed to contain the exact
// aggregate of the most recent window of the given size.
func (m *Monitor) AggregateBound(stream, window int) (Interval, error) {
	start := time.Now()
	iv, err := m.sum.AggregateBound(stream, window)
	m.metrics.Aggregate.ObserveQuery(0, 0, int64(time.Since(start)))
	return iv, err
}

// FindPattern answers a variable-length similarity query: all stream
// subsequences within distance r of the query under the configured
// normalization. The monitor's mode selects the paper's Algorithm 3
// (Online/SWAT) or Algorithm 4 (Batch).
func (m *Monitor) FindPattern(q []float64, r float64) (PatternResult, error) {
	start := time.Now()
	var res PatternResult
	var err error
	if m.mode == Batch {
		res, err = m.sum.PatternQueryBatch(q, r)
	} else {
		res, err = m.sum.PatternQueryOnline(q, r)
	}
	// Relevant (candidates whose verification succeeded) is the precision
	// numerator, so PruningPower matches PatternResult.Precision.
	m.metrics.Pattern.ObserveQuery(len(res.Candidates), res.Relevant, int64(time.Since(start)))
	return res, err
}

// Correlations reports stream pairs whose current windows at the given
// resolution level are within z-norm distance r (correlation ≥ 1 − r²/2),
// screened by the level index and verified on raw history.
func (m *Monitor) Correlations(level int, r float64) (CorrelationResult, error) {
	start := time.Now()
	res, err := m.sum.CorrelationQuery(level, r)
	m.metrics.Correlation.ObserveQuery(len(res.Candidates), len(res.Pairs), int64(time.Since(start)))
	return res, err
}

// NearestPatterns returns the k stream subsequences most similar to the
// query (smallest normalized distance), verified on raw history and sorted
// by increasing distance. Requires a Batch monitor.
func (m *Monitor) NearestPatterns(q []float64, k int) ([]Match, error) {
	start := time.Now()
	ms, err := m.sum.NearestPatterns(q, k)
	// k-NN has no screened/verified split; it contributes invocations and
	// latency to the pattern class without skewing its pruning power.
	m.metrics.Pattern.ObserveQuery(0, 0, int64(time.Since(start)))
	return ms, err
}

// LaggedCorrelations reports screened stream pairs whose current window on
// one side resembles a window of the other side ending up to maxLag time
// steps earlier (TimeA − TimeB is the lag). Pairs are screened only; pass
// them to Summary().VerifyPairs for exact confirmation. Requires the
// summary to retain indexed features across the lag range (IndexHorizon).
func (m *Monitor) LaggedCorrelations(level int, r float64, maxLag int) ([]CorrPair, error) {
	start := time.Now()
	pairs, err := m.sum.CorrelationScreenLagged(level, r, maxLag)
	// Screen-only: no verification runs here, so only invocations and
	// latency are recorded (candidates would skew pruning power).
	m.metrics.Correlation.ObserveQuery(0, 0, int64(time.Since(start)))
	return pairs, err
}

// LinearScanMatches is the brute-force ground truth for FindPattern,
// scanning every retained alignment of every stream.
func (m *Monitor) LinearScanMatches(q []float64, r float64) []Match {
	return m.sum.ScanPatternMatches(q, r)
}

// Stats returns a space-usage snapshot: per-level box counts, index sizes,
// retained raw history, and the ingestion guard's counters.
func (m *Monitor) Stats() Stats {
	st := m.sum.Stats()
	st.Ingest = m.guard.Stats()
	return st
}

// Metrics returns a point-in-time observability snapshot: ingestion
// counters and sampled append latency, R*-tree node accesses, splits and
// reinsertions summed over all levels, and per-query-class candidate vs.
// verified counts with latency percentiles. Counters are monotone between
// snapshots; the snapshot is per-counter consistent, not globally atomic.
func (m *Monitor) Metrics() MetricsSnapshot {
	snap := m.metrics.Snapshot()
	gs := m.guard.Stats()
	snap.Ingest.Accepted = gs.Accepted
	snap.Ingest.Repaired = gs.Repaired
	snap.Ingest.Rejected = gs.Rejected
	snap.Ingest.QuarantinedStreams = int64(gs.QuarantinedStreams)
	snap.Ingest.QuarantineTrips = gs.QuarantineTrips
	return snap
}

// Summary exposes the underlying core summary for advanced use (per-level
// index inspection, exact feature recomputation).
func (m *Monitor) Summary() *core.Summary { return m.sum }
