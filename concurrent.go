package stardust

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// SafeWatcher is the concurrent in-process backend: a Watcher behind a
// read-write lock. Ingestion, watch registration and the durability and
// replication operations take the write lock, so standing queries are
// evaluated and their events produced in ingestion order; on-demand
// queries, clocks, stats, metrics, snapshots and feature exports take the
// read lock, so any number of goroutines may query while ingestion
// proceeds from another. A SafeWatcher with no watches installed is a
// plain concurrent monitor: runs for a stream no watch can fire on go
// straight to the summary. For write-heavy multi-stream pipelines,
// sharding streams across independent monitors (ShardedMonitor) scales
// better than a single lock.
type SafeWatcher struct {
	mu   sync.RWMutex
	w    *Watcher
	sink func([]Event)
}

// NewSafeWatcher wraps a monitor (for example one restored with Load) in
// a locked watcher. The caller must stop using the bare monitor
// afterwards.
func NewSafeWatcher(m *Monitor) *SafeWatcher {
	return &SafeWatcher{w: NewWatcher(m)}
}

// WrapSafe is NewSafeWatcher under its earlier name, kept because the
// benchmark module (stardustbench), which is versioned apart from this
// package, still calls it.
func WrapSafe(m *Monitor) *SafeWatcher { return NewSafeWatcher(m) }

// SetEventSink installs the callback that receives events triggered by
// Ingest/IngestBatch/IngestAll and by replicated records (the Interface
// ingestion paths, whose signatures cannot return events). The sink is
// invoked under the write lock — it must not call back into the watcher.
// A nil sink drops events; callers that need the events inline should
// use Push or AppendAll instead.
func (s *SafeWatcher) SetEventSink(fn func([]Event)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sink = fn
}

// deliver hands events to the sink. The caller holds the write lock.
func (s *SafeWatcher) deliver(events []Event) {
	if len(events) > 0 && s.sink != nil {
		s.sink(events)
	}
}

// WatchAggregate registers a standing aggregate query.
func (s *SafeWatcher) WatchAggregate(stream, window int, threshold float64, edgeTriggered bool) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.WatchAggregate(stream, window, threshold, edgeTriggered)
}

// WatchPattern registers a standing pattern query.
func (s *SafeWatcher) WatchPattern(query []float64, radius float64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.WatchPattern(query, radius)
}

// WatchCorrelation registers a standing correlation query.
func (s *SafeWatcher) WatchCorrelation(level int, radius float64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.WatchCorrelation(level, radius)
}

// Unwatch removes a standing query.
func (s *SafeWatcher) Unwatch(id int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Unwatch(id)
}

// Batch runs fn against the underlying watcher while holding the lock,
// so a multi-watch mutation — installing a compiled spec, or swapping
// one spec for another — is atomic with respect to concurrent pushes: no
// push can observe a half-installed watch set. fn must not call back
// into the SafeWatcher (the lock is not reentrant) and must not retain
// the bare watcher past its return.
func (s *SafeWatcher) Batch(fn func(*Watcher) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fn(s.w)
}

// Push ingests one value and returns the events it triggered.
func (s *SafeWatcher) Push(stream int, v float64) ([]Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Push(stream, v)
}

// Ingest pushes one value through the watcher, evaluating standing
// queries; triggered events go to the SetEventSink callback (or are
// dropped when none is installed).
func (s *SafeWatcher) Ingest(stream int, v float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	evs, err := s.w.Push(stream, v)
	s.deliver(evs)
	return err
}

// IngestBatch ingests a run of values for one stream under a single lock
// acquisition, with Monitor.IngestBatch's skip-and-join error contract:
// the admitted run is one write-ahead-log record, and standing queries
// are evaluated after every admitted value (a batch must not skip
// trigger points). Events go to the sink.
func (s *SafeWatcher) IngestBatch(stream int, vs []float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	evs, err := s.w.ingestBatch(stream, vs)
	s.deliver(evs)
	return err
}

// IngestAll pushes one synchronized arrival through the watcher with
// Monitor.IngestAll's contract: every stream is attempted, rejected
// streams skip this tick and their errors are joined. Events of every
// admitted value go to the sink.
func (s *SafeWatcher) IngestAll(vs []float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.w.mon.NumStreams(); len(vs) != n {
		return fmt.Errorf("stardust: %w: IngestAll got %d values for %d streams", ErrStreamRange, len(vs), n)
	}
	var events []Event
	var errs []error
	for i, v := range vs {
		evs, err := s.w.Push(i, v)
		events = append(events, evs...)
		if err != nil {
			errs = append(errs, err)
		}
	}
	s.deliver(events)
	return errors.Join(errs...)
}

// AppendAll pushes one synchronized arrival through the watcher, returning
// the events of each stream's push concatenated.
//
// Partial-event contract: on a mid-loop error (a rejected sample or a
// failing standing query) the events already triggered by earlier streams
// in THIS arrival are returned alongside the error, and later streams are
// not pushed — their clocks do not advance. Callers must consume the
// returned events even when err != nil; they will not be re-delivered.
func (s *SafeWatcher) AppendAll(vs []float64) ([]Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var events []Event
	for i, v := range vs {
		evs, err := s.w.Push(i, v)
		if err != nil {
			return events, err
		}
		events = append(events, evs...)
	}
	return events, nil
}

// CheckAggregate runs one on-demand aggregate check (see
// Monitor.CheckAggregate).
func (s *SafeWatcher) CheckAggregate(stream, window int, threshold float64) (AggregateResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.w.mon.CheckAggregate(stream, window, threshold)
}

// AggregateBound returns the certified interval around the exact aggregate.
func (s *SafeWatcher) AggregateBound(stream, window int) (Interval, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.w.mon.AggregateBound(stream, window)
}

// FindPattern answers a variable-length similarity query.
func (s *SafeWatcher) FindPattern(q []float64, r float64) (PatternResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.w.mon.FindPattern(q, r)
}

// NearestPatterns returns the k streams nearest to the query pattern.
func (s *SafeWatcher) NearestPatterns(q []float64, k int) ([]Match, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.w.mon.NearestPatterns(q, k)
}

// Correlations reports verified correlated stream pairs.
func (s *SafeWatcher) Correlations(level int, r float64) (CorrelationResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.w.mon.Correlations(level, r)
}

// LaggedCorrelations reports screened pairs across lags.
func (s *SafeWatcher) LaggedCorrelations(level int, r float64, maxLag int) ([]CorrPair, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.w.mon.LaggedCorrelations(level, r, maxLag)
}

// NumStreams returns the stream count.
func (s *SafeWatcher) NumStreams() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.w.mon.NumStreams()
}

// Now returns the stream's most recent discrete time.
func (s *SafeWatcher) Now(stream int) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.w.mon.Now(stream)
}

// Stats returns the summary's space snapshot.
func (s *SafeWatcher) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.w.mon.Stats()
}

// Metrics returns the underlying monitor's observability snapshot.
func (s *SafeWatcher) Metrics() MetricsSnapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.w.mon.Metrics()
}

// Snapshot serializes the monitor state under the read lock, so
// concurrent ingestion cannot tear the snapshot.
func (s *SafeWatcher) Snapshot(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.w.mon.Snapshot(w)
}
