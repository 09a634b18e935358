// Package obs is Stardust's zero-dependency observability substrate: atomic
// counters, gauges and bounded histograms that instrument the summary's hot
// paths — ingestion, R*-tree node accesses and the three query classes —
// without changing their behavior. The paper states its cost model in index
// node accesses, per-item update time and candidate-vs-verified alarm
// counts (Section 6); these are exactly the quantities the substrate
// captures, so every future optimisation can be measured against the
// paper's own axes.
//
// All primitives are safe for concurrent use. A nil metrics sink disables
// instrumentation at the call site (hot paths check once per operation, not
// per sample), and per-append latency is sampled rather than timed on every
// arrival so the instrumented ingest path stays within a few percent of the
// uninstrumented one.
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one and returns the new value.
func (c *Counter) Inc() int64 { return c.v.Add(1) }

// Add adds n and returns the new value (n must be non-negative to preserve
// monotonicity, except to back out an amount counted ahead of an effect
// that then failed).
func (c *Counter) Add(n int64) int64 { return c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by delta (which may be negative) atomically —
// the increment/decrement form used by in-flight style gauges.
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a bounded histogram over float64 observations: fixed bucket
// upper bounds chosen at construction, one atomic count per bucket plus an
// overflow bucket, and an atomically accumulated sum. Memory is O(buckets)
// regardless of observation count.
type Histogram struct {
	bounds []float64 // ascending upper bounds; observations > last go to overflow
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram builds a histogram with the given ascending bucket upper
// bounds. An implicit +Inf overflow bucket is appended.
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// LatencyBuckets returns exponential nanosecond bounds from 250ns to ~1s,
// suitable for both per-append and per-query latencies.
func LatencyBuckets() []float64 {
	bounds := make([]float64, 0, 23)
	for v := 250.0; v <= 1e9; v *= 2 {
		bounds = append(bounds, v)
	}
	return bounds
}

// CountBuckets returns exponential bounds 1, 2, 4, ... 4096 for small-count
// distributions such as index node accesses per query.
func CountBuckets() []float64 {
	bounds := make([]float64, 13)
	for i := range bounds {
		bounds[i] = float64(int64(1) << uint(i))
	}
	return bounds
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Bounds are few (≤ ~24); a linear scan beats binary search's branch
	// misses at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Snapshot returns a point-in-time copy of the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	out := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		out.Counts[i] = h.counts[i].Load()
	}
	return out
}

// HistogramSnapshot is a plain-data copy of a Histogram. Counts has one
// entry per bound plus a final overflow bucket.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds (ascending). Counts[i] holds
	// observations ≤ Bounds[i] (and > Bounds[i-1]); Counts[len(Bounds)] is
	// the overflow bucket.
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// Mean returns the average observation (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the containing bucket. Observations in the overflow bucket are
// attributed to the last finite bound. Returns 0 when empty.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	cum := int64(0)
	for i, c := range h.Counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(h.Bounds) {
			// Overflow bucket: no finite upper bound, report the last one.
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		hi := h.Bounds[i]
		if c == 0 {
			return hi
		}
		frac := (rank - float64(prev)) / float64(c)
		return lo + frac*(hi-lo)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// P50 is the estimated median.
func (h HistogramSnapshot) P50() float64 { return h.Quantile(0.50) }

// P95 is the estimated 95th percentile.
func (h HistogramSnapshot) P95() float64 { return h.Quantile(0.95) }

// P99 is the estimated 99th percentile.
func (h HistogramSnapshot) P99() float64 { return h.Quantile(0.99) }

// merge adds o's buckets into h (a fresh copy is returned; inputs are not
// mutated). Histograms from differently-configured monitors (mismatched
// bounds) fall back to keeping the larger side's buckets and folding the
// other side into count/sum only.
func (h HistogramSnapshot) merge(o HistogramSnapshot) HistogramSnapshot {
	if len(h.Bounds) == 0 {
		return o
	}
	out := HistogramSnapshot{
		Bounds: h.Bounds,
		Counts: append([]int64(nil), h.Counts...),
		Count:  h.Count + o.Count,
		Sum:    h.Sum + o.Sum,
	}
	if len(o.Counts) == len(h.Counts) {
		for i, c := range o.Counts {
			out.Counts[i] += c
		}
	}
	return out
}

// TreeMetrics instruments one or more R*-trees: structural writes (inserts,
// deletes, splits, forced reinsertions) and node accesses, the unit the
// paper's index cost model counts. All per-level trees of a summary share
// one TreeMetrics, so the totals are summary-wide.
type TreeMetrics struct {
	// Inserts and Deletes count leaf entries added/removed.
	Inserts, Deletes Counter
	// Searches counts range/sphere/nearest-neighbor traversals.
	Searches Counter
	// NodeReads counts nodes visited by any operation; NodeWrites counts
	// nodes structurally modified (entry added/removed/box adjusted).
	NodeReads, NodeWrites Counter
	// Splits counts node splits; Reinserts counts forced-reinsertion
	// rounds (R* OverflowTreatment).
	Splits, Reinserts Counter
	// SearchNodes is the distribution of nodes read per search traversal —
	// the per-operation index cost the paper reports.
	SearchNodes *Histogram
}

// QueryMetrics instruments one query class.
type QueryMetrics struct {
	// Queries counts invocations (including erroneous ones).
	Queries Counter
	// Candidates counts records retrieved by the index screen; Verified
	// counts those confirmed on raw history. Verified/Candidates is the
	// paper's precision (pruning power).
	Candidates, Verified Counter
	// Latency is the per-invocation wall time in nanoseconds.
	Latency *Histogram
}

// observe records one completed query.
func (q *QueryMetrics) observe(candidates, verified int, nanos int64) {
	q.Queries.Inc()
	q.Candidates.Add(int64(candidates))
	q.Verified.Add(int64(verified))
	q.Latency.Observe(float64(nanos))
}

// IngestMetrics instruments the ingestion path. Accept/repair/reject
// counters live in the resilience guard; here we track the sample cadence
// and the per-append latency distribution.
type IngestMetrics struct {
	// Samples counts ingestion attempts (admitted or not); it also drives
	// latency sampling.
	Samples Counter
	// Batches counts IngestBatch invocations; BatchSize is the distribution
	// of their sizes, so batch amortization is visible next to the
	// per-sample counters.
	Batches   Counter
	BatchSize *Histogram
	// AppendNanos is the sampled per-append latency (one in SampleEvery
	// appends is timed; batched appends observe their amortized per-sample
	// cost when the batch crosses a sampling point).
	AppendNanos *Histogram
}

// SampleEvery is the per-append latency sampling period: one append in
// SampleEvery is timed. It is a power of two so the hot path can mask
// instead of divide.
const SampleEvery = 64

// Sampled reports whether the n-th sample should be timed.
func Sampled(n int64) bool { return n&(SampleEvery-1) == 0 }

// SampledBatch reports whether a batch of n samples ending at cumulative
// count end crossed a sampling point, i.e. whether some k ≡ 0 (mod
// SampleEvery) lies in (end−n, end].
func SampledBatch(end, n int64) bool {
	if n <= 0 {
		return false
	}
	return end/SampleEvery != (end-n)/SampleEvery || Sampled(end)
}

// ParallelMetrics instruments the query-stage worker pool that fans
// candidate screening and verification across cores. A round is one
// fan-out (one screening or verification stage of one query); tasks are
// the independent work items sharded across the workers.
type ParallelMetrics struct {
	// Workers is the configured pool width (1 = serial execution).
	Workers Gauge
	// Rounds counts stages that fanned out across workers; SerialRounds
	// counts stages that ran inline (Workers == 1 or too few items to be
	// worth the fan-out).
	Rounds, SerialRounds Counter
	// Tasks counts work items processed by either path.
	Tasks Counter
	// QueueDepth is the distribution of items enqueued per parallel round;
	// divide by Workers for the average per-worker share.
	QueueDepth *Histogram
	// StageNanos is the wall time per parallel round — screening-stage
	// latency, the quantity to compare across Workers settings for
	// parallel efficiency.
	StageNanos *Histogram
}

// ObserveSerial records one stage that ran inline with n items.
func (p *ParallelMetrics) ObserveSerial(n int) {
	p.SerialRounds.Inc()
	p.Tasks.Add(int64(n))
}

// ObserveRound records one completed parallel fan-out of n items that took
// nanos wall time.
func (p *ParallelMetrics) ObserveRound(n int, nanos int64) {
	p.Rounds.Inc()
	p.Tasks.Add(int64(n))
	p.QueueDepth.Observe(float64(n))
	p.StageNanos.Observe(float64(nanos))
}

// WALMetrics instruments the write-ahead log on the ingest hot path:
// append volume, fsync cadence and latency (the durability cost), group
// commit amortization, and the segment lifecycle driven by rotation and
// snapshot-watermark trimming.
type WALMetrics struct {
	// Appends counts records appended; AppendedBytes their framed sizes.
	Appends, AppendedBytes Counter
	// Fsyncs counts fsync calls; FsyncNanos is their latency distribution.
	Fsyncs     Counter
	FsyncNanos *Histogram
	// GroupCommit is the distribution of records made durable per fsync —
	// the group-commit batch size. Values above 1 mean concurrent callers
	// shared one fsync.
	GroupCommit *Histogram
	// Rotations counts segment rollovers; SegmentsLive is the current
	// on-disk segment count; SegmentsTrimmed counts segments removed by
	// snapshot-watermark GC.
	Rotations       Counter
	SegmentsLive    Gauge
	SegmentsTrimmed Counter
	// ReplayedRecords and ReplayedSamples count what crash recovery read
	// back; ReplayNanos is the wall time of the last replay.
	ReplayedRecords, ReplayedSamples Counter
	// ReplayNanos is the duration of the most recent replay (0 = none ran).
	ReplayNanos Gauge
	// Degraded is 1 while the log is detached from a failing disk
	// (FailDegrade policy) and ingest is in-memory only.
	Degraded Gauge
	// DroppedAppends counts records dropped while degraded (ingested in
	// memory, never logged); WriteRetries counts segment-write retry
	// attempts after transient errors; Reattaches counts recoveries from
	// degraded mode back to a fresh on-disk segment.
	DroppedAppends, WriteRetries, Reattaches Counter
}

// Metrics is the live instrument set of one monitor. Construct with
// NewMetrics; all fields are safe for concurrent use.
type Metrics struct {
	Ingest      IngestMetrics
	Tree        TreeMetrics
	Parallel    ParallelMetrics
	WAL         WALMetrics
	Watch       WatchMetrics
	Aggregate   QueryMetrics
	Pattern     QueryMetrics
	Correlation QueryMetrics
}

// NewMetrics builds a metrics set with default histogram bounds.
func NewMetrics() *Metrics {
	m := &Metrics{}
	m.Ingest.AppendNanos = NewHistogram(LatencyBuckets())
	m.Ingest.BatchSize = NewHistogram(CountBuckets())
	m.Tree.SearchNodes = NewHistogram(CountBuckets())
	m.Parallel.QueueDepth = NewHistogram(CountBuckets())
	m.Parallel.StageNanos = NewHistogram(LatencyBuckets())
	m.WAL.FsyncNanos = NewHistogram(LatencyBuckets())
	m.WAL.GroupCommit = NewHistogram(CountBuckets())
	m.Watch.EvaluateNanos = NewHistogram(LatencyBuckets())
	m.Aggregate.Latency = NewHistogram(LatencyBuckets())
	m.Pattern.Latency = NewHistogram(LatencyBuckets())
	m.Correlation.Latency = NewHistogram(LatencyBuckets())
	return m
}

// ObserveQuery records one completed query of the given class.
func (q *QueryMetrics) ObserveQuery(candidates, verified int, nanos int64) {
	q.observe(candidates, verified, nanos)
}

// Snapshot captures every instrument at one point in time. Counters are
// read individually (not under one lock), so a snapshot taken during
// concurrent ingestion is per-counter consistent, not globally atomic —
// fine for monitoring, where each series is monotone on its own.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		Ingest: IngestSnapshot{
			Samples:     m.Ingest.Samples.Load(),
			Batches:     m.Ingest.Batches.Load(),
			BatchSize:   m.Ingest.BatchSize.Snapshot(),
			AppendNanos: m.Ingest.AppendNanos.Snapshot(),
		},
		Tree: TreeSnapshot{
			Inserts:     m.Tree.Inserts.Load(),
			Deletes:     m.Tree.Deletes.Load(),
			Searches:    m.Tree.Searches.Load(),
			NodeReads:   m.Tree.NodeReads.Load(),
			NodeWrites:  m.Tree.NodeWrites.Load(),
			Splits:      m.Tree.Splits.Load(),
			Reinserts:   m.Tree.Reinserts.Load(),
			SearchNodes: m.Tree.SearchNodes.Snapshot(),
		},
		Parallel: ParallelSnapshot{
			Workers:      m.Parallel.Workers.Load(),
			Rounds:       m.Parallel.Rounds.Load(),
			SerialRounds: m.Parallel.SerialRounds.Load(),
			Tasks:        m.Parallel.Tasks.Load(),
			QueueDepth:   m.Parallel.QueueDepth.Snapshot(),
			StageNanos:   m.Parallel.StageNanos.Snapshot(),
		},
		WAL: WALSnapshot{
			Appends:         m.WAL.Appends.Load(),
			AppendedBytes:   m.WAL.AppendedBytes.Load(),
			Fsyncs:          m.WAL.Fsyncs.Load(),
			FsyncNanos:      m.WAL.FsyncNanos.Snapshot(),
			GroupCommit:     m.WAL.GroupCommit.Snapshot(),
			Rotations:       m.WAL.Rotations.Load(),
			SegmentsLive:    m.WAL.SegmentsLive.Load(),
			SegmentsTrimmed: m.WAL.SegmentsTrimmed.Load(),
			ReplayedRecords: m.WAL.ReplayedRecords.Load(),
			ReplayedSamples: m.WAL.ReplayedSamples.Load(),
			ReplayNanos:     m.WAL.ReplayNanos.Load(),
			Degraded:        m.WAL.Degraded.Load(),
			DroppedAppends:  m.WAL.DroppedAppends.Load(),
			WriteRetries:    m.WAL.WriteRetries.Load(),
			Reattaches:      m.WAL.Reattaches.Load(),
		},
		Watch: WatchSnapshot{
			ActiveAggregate:   m.Watch.ActiveAggregate.Load(),
			ActivePattern:     m.Watch.ActivePattern.Load(),
			ActiveCorrelation: m.Watch.ActiveCorrelation.Load(),
			Installs:          m.Watch.Installs.Load(),
			Uninstalls:        m.Watch.Uninstalls.Load(),
			Fired:             m.Watch.Fired.Load(),
			Cleared:           m.Watch.Cleared.Load(),
			Evaluations:       m.Watch.Evaluations.Load(),
			EvaluateNanos:     m.Watch.EvaluateNanos.Snapshot(),
		},
		Aggregate:   snapshotQuery(&m.Aggregate),
		Pattern:     snapshotQuery(&m.Pattern),
		Correlation: snapshotQuery(&m.Correlation),
	}
}

func snapshotQuery(q *QueryMetrics) QuerySnapshot {
	return QuerySnapshot{
		Queries:    q.Queries.Load(),
		Candidates: q.Candidates.Load(),
		Verified:   q.Verified.Load(),
		Latency:    q.Latency.Snapshot(),
	}
}

// IngestSnapshot is the ingestion section of a Snapshot. The guard's
// accept/repair/reject counters are filled in by the monitor wrapper that
// owns the guard.
type IngestSnapshot struct {
	// Samples counts ingestion attempts seen by the instrumented path.
	Samples int64
	// Batches counts IngestBatch invocations; BatchSize is the size
	// distribution of those batches.
	Batches   int64
	BatchSize HistogramSnapshot
	// Accepted/Repaired/Rejected mirror the resilience guard's counters.
	Accepted, Repaired, Rejected int64
	// QuarantinedStreams and QuarantineTrips mirror the guard's quarantine
	// state.
	QuarantinedStreams, QuarantineTrips int64
	// AppendNanos is the sampled per-append latency distribution.
	AppendNanos HistogramSnapshot
}

// ParallelSnapshot is the worker-pool section of a Snapshot.
type ParallelSnapshot struct {
	// Workers is the configured pool width (1 = serial).
	Workers int64
	// Rounds/SerialRounds split query stages by execution path; Tasks
	// counts work items across both.
	Rounds, SerialRounds, Tasks int64
	// QueueDepth is the items-per-round distribution; StageNanos the
	// per-round wall time.
	QueueDepth, StageNanos HistogramSnapshot
}

// WALSnapshot is the write-ahead-log section of a Snapshot. All fields are
// zero when durability is disabled.
type WALSnapshot struct {
	// Appends counts records written; AppendedBytes their framed sizes.
	Appends, AppendedBytes int64
	// Fsyncs counts fsync calls; FsyncNanos their latency distribution;
	// GroupCommit the records-per-fsync distribution.
	Fsyncs                  int64
	FsyncNanos, GroupCommit HistogramSnapshot
	// Rotations/SegmentsLive/SegmentsTrimmed describe the segment
	// lifecycle.
	Rotations, SegmentsLive, SegmentsTrimmed int64
	// ReplayedRecords/ReplayedSamples/ReplayNanos describe the last crash
	// recovery replay.
	ReplayedRecords, ReplayedSamples, ReplayNanos int64
	// Degraded is 1 while the log is detached from a failing disk;
	// DroppedAppends counts records dropped while degraded, WriteRetries
	// the segment-write retries, Reattaches the recoveries back to disk.
	Degraded, DroppedAppends, WriteRetries, Reattaches int64
}

// merge sums two WAL snapshots (a cluster presents one surface).
func (w WALSnapshot) merge(o WALSnapshot) WALSnapshot {
	replay := w.ReplayNanos
	if o.ReplayNanos > replay {
		replay = o.ReplayNanos
	}
	degraded := w.Degraded
	if o.Degraded > degraded {
		degraded = o.Degraded
	}
	return WALSnapshot{
		Appends:         w.Appends + o.Appends,
		AppendedBytes:   w.AppendedBytes + o.AppendedBytes,
		Fsyncs:          w.Fsyncs + o.Fsyncs,
		FsyncNanos:      w.FsyncNanos.merge(o.FsyncNanos),
		GroupCommit:     w.GroupCommit.merge(o.GroupCommit),
		Rotations:       w.Rotations + o.Rotations,
		SegmentsLive:    w.SegmentsLive + o.SegmentsLive,
		SegmentsTrimmed: w.SegmentsTrimmed + o.SegmentsTrimmed,
		ReplayedRecords: w.ReplayedRecords + o.ReplayedRecords,
		ReplayedSamples: w.ReplayedSamples + o.ReplayedSamples,
		ReplayNanos:     replay,
		Degraded:        degraded,
		DroppedAppends:  w.DroppedAppends + o.DroppedAppends,
		WriteRetries:    w.WriteRetries + o.WriteRetries,
		Reattaches:      w.Reattaches + o.Reattaches,
	}
}

// TreeSnapshot is the R*-tree section of a Snapshot (summed over all
// resolution levels).
type TreeSnapshot struct {
	Inserts, Deletes, Searches int64
	NodeReads, NodeWrites      int64
	Splits, Reinserts          int64
	SearchNodes                HistogramSnapshot
}

// QuerySnapshot is one query class's section of a Snapshot.
type QuerySnapshot struct {
	Queries, Candidates, Verified int64
	Latency                       HistogramSnapshot
}

// PruningPower is the paper's precision metric for the index screen:
// verified results over retrieved candidates (1 when nothing was
// retrieved). Low pruning power means the index admits many candidates
// that verification then discards.
func (q QuerySnapshot) PruningPower() float64 {
	if q.Candidates == 0 {
		return 1
	}
	return float64(q.Verified) / float64(q.Candidates)
}

// FaultSnapshot is the fault-injection section of a Snapshot: all-zero in
// production (no injector armed). The server fills it from the injector's
// counters so chaos experiments can watch their own blast radius on
// /metricsz.
type FaultSnapshot struct {
	// RulesArmed is the number of fault rules currently loaded.
	RulesArmed int64
	// Evals counts injection-point evaluations; Injected counts the
	// subset that fired a fault.
	Evals, Injected int64
}

// merge sums counters and takes the maximum of the armed-rules gauge.
func (f FaultSnapshot) merge(o FaultSnapshot) FaultSnapshot {
	armed := f.RulesArmed
	if o.RulesArmed > armed {
		armed = o.RulesArmed
	}
	return FaultSnapshot{
		RulesArmed: armed,
		Evals:      f.Evals + o.Evals,
		Injected:   f.Injected + o.Injected,
	}
}

// Snapshot is a point-in-time copy of a monitor's metrics: plain data, safe
// to retain, serialize, or merge across shards.
type Snapshot struct {
	Ingest      IngestSnapshot
	Tree        TreeSnapshot
	Parallel    ParallelSnapshot
	WAL         WALSnapshot
	Watch       WatchSnapshot
	Repl        ReplSnapshot
	Net         NetSnapshot
	Fault       FaultSnapshot
	Cluster     ClusterSnapshot
	Tenant      TenantsSnapshot
	Aggregate   QuerySnapshot
	Pattern     QuerySnapshot
	Correlation QuerySnapshot
}

// Merge returns the element-wise sum of two snapshots (histograms merge
// bucket-wise). The cluster coordinator uses it to present its shards as
// one metrics surface.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	workers := s.Parallel.Workers
	if o.Parallel.Workers > workers {
		workers = o.Parallel.Workers
	}
	return Snapshot{
		Ingest: IngestSnapshot{
			Samples:            s.Ingest.Samples + o.Ingest.Samples,
			Batches:            s.Ingest.Batches + o.Ingest.Batches,
			BatchSize:          s.Ingest.BatchSize.merge(o.Ingest.BatchSize),
			Accepted:           s.Ingest.Accepted + o.Ingest.Accepted,
			Repaired:           s.Ingest.Repaired + o.Ingest.Repaired,
			Rejected:           s.Ingest.Rejected + o.Ingest.Rejected,
			QuarantinedStreams: s.Ingest.QuarantinedStreams + o.Ingest.QuarantinedStreams,
			QuarantineTrips:    s.Ingest.QuarantineTrips + o.Ingest.QuarantineTrips,
			AppendNanos:        s.Ingest.AppendNanos.merge(o.Ingest.AppendNanos),
		},
		Parallel: ParallelSnapshot{
			Workers:      workers,
			Rounds:       s.Parallel.Rounds + o.Parallel.Rounds,
			SerialRounds: s.Parallel.SerialRounds + o.Parallel.SerialRounds,
			Tasks:        s.Parallel.Tasks + o.Parallel.Tasks,
			QueueDepth:   s.Parallel.QueueDepth.merge(o.Parallel.QueueDepth),
			StageNanos:   s.Parallel.StageNanos.merge(o.Parallel.StageNanos),
		},
		Tree: TreeSnapshot{
			Inserts:     s.Tree.Inserts + o.Tree.Inserts,
			Deletes:     s.Tree.Deletes + o.Tree.Deletes,
			Searches:    s.Tree.Searches + o.Tree.Searches,
			NodeReads:   s.Tree.NodeReads + o.Tree.NodeReads,
			NodeWrites:  s.Tree.NodeWrites + o.Tree.NodeWrites,
			Splits:      s.Tree.Splits + o.Tree.Splits,
			Reinserts:   s.Tree.Reinserts + o.Tree.Reinserts,
			SearchNodes: s.Tree.SearchNodes.merge(o.Tree.SearchNodes),
		},
		WAL:         s.WAL.merge(o.WAL),
		Watch:       s.Watch.merge(o.Watch),
		Repl:        s.Repl.merge(o.Repl),
		Net:         s.Net.merge(o.Net),
		Fault:       s.Fault.merge(o.Fault),
		Cluster:     s.Cluster.merge(o.Cluster),
		Tenant:      s.Tenant.merge(o.Tenant),
		Aggregate:   s.Aggregate.mergeQuery(o.Aggregate),
		Pattern:     s.Pattern.mergeQuery(o.Pattern),
		Correlation: s.Correlation.mergeQuery(o.Correlation),
	}
}

func (q QuerySnapshot) mergeQuery(o QuerySnapshot) QuerySnapshot {
	return QuerySnapshot{
		Queries:    q.Queries + o.Queries,
		Candidates: q.Candidates + o.Candidates,
		Verified:   q.Verified + o.Verified,
		Latency:    q.Latency.merge(o.Latency),
	}
}
