package stardust

import "io"

// Interface is the unified monitoring surface shared by every monitor
// flavor: the plain Monitor, the concurrent SafeWatcher (a monitor plus
// its standing queries, behind a read-write lock) and the router's
// stream-partitioned coordinator in internal/cluster all satisfy it. It is
// the contract both servers bind against — the HTTP server in
// internal/server and the binary TCP tier in internal/transport — and the
// type to accept when a component only needs to feed and query a monitor
// without caring how it is synchronized or distributed.
//
// The surface has three parts: ingestion (Ingest, IngestAll, IngestBatch —
// the guarded, error-returning paths; the historical panicking Append
// wrappers are gone), the three query classes of the paper (aggregate,
// pattern/nearest-neighbor, correlation), and the stats surface (Stats for
// space accounting, Metrics for runtime observability, Snapshot for
// persistence).
type Interface interface {
	// Ingest admits one value for one stream through the resilience
	// guard, returning a typed error (ErrStreamRange, ErrBadValue,
	// ErrQuarantined) for samples that cannot be admitted.
	Ingest(stream int, v float64) error
	// IngestAll admits one synchronized arrival, vs[i] going to stream i.
	IngestAll(vs []float64) error
	// IngestBatch admits a run of consecutive values for one stream — the
	// amortized bulk path. Inadmissible samples are skipped and their
	// typed errors joined; admitted samples advance the clock in order,
	// exactly as a loop of Ingest calls would.
	IngestBatch(stream int, vs []float64) error

	// NumStreams returns the number of monitored streams.
	NumStreams() int
	// Now returns the discrete time of the stream's most recent value
	// (−1 before the first).
	Now(stream int) int64

	// CheckAggregate runs one aggregate monitoring check (Algorithm 2):
	// screen the summary bound, verify against raw history on overlap.
	CheckAggregate(stream, window int, threshold float64) (AggregateResult, error)
	// AggregateBound returns the certified interval enclosing the exact
	// windowed aggregate.
	AggregateBound(stream, window int) (Interval, error)
	// FindPattern answers a similarity range query: streams whose recent
	// window lies within distance r of q.
	FindPattern(q []float64, r float64) (PatternResult, error)
	// NearestPatterns returns the k streams nearest to the query pattern.
	NearestPatterns(q []float64, k int) ([]Match, error)
	// Correlations reports verified correlated stream pairs at a level.
	Correlations(level int, r float64) (CorrelationResult, error)
	// LaggedCorrelations screens correlated pairs across time lags.
	LaggedCorrelations(level int, r float64, maxLag int) ([]CorrPair, error)

	// Stats returns a space-usage snapshot of the summary.
	Stats() Stats
	// Metrics returns the observability snapshot: ingestion counters,
	// index node accesses, and per-query-class pruning power.
	Metrics() MetricsSnapshot
	// Snapshot serializes the monitor state for crash recovery.
	Snapshot(w io.Writer) error
}

// Compile-time checks: both in-process monitor flavors satisfy the unified
// surface.
var (
	_ Interface = (*Monitor)(nil)
	_ Interface = (*SafeWatcher)(nil)
)
