package stardust

import (
	"errors"
	"fmt"
	"math"
	"time"

	"stardust/internal/aggregate"
	"stardust/internal/core"
	"stardust/internal/obs"
	"stardust/internal/window"
)

// ErrBadWatch marks a standing-query registration rejected for
// nonsensical parameters (non-positive window or radius, empty or
// non-finite query, out-of-range stream or level). Registration
// validates up front so a bad watch can never fail later at evaluate
// time; callers match the sentinel with errors.Is and servers map it to
// HTTP 400.
var ErrBadWatch = errors.New("invalid watch")

// EventKind distinguishes watcher events.
type EventKind int

const (
	// EventAggregate is a verified threshold crossing of a standing
	// aggregate query.
	EventAggregate EventKind = iota
	// EventAggregateCleared marks an aggregate watch falling back below
	// its threshold (only with edge triggering).
	EventAggregateCleared
	// EventPattern is a new verified match of a standing pattern query.
	EventPattern
	// EventCorrelation is a newly verified correlated stream pair of a
	// standing correlation query.
	EventCorrelation
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventAggregate:
		return "aggregate-alarm"
	case EventAggregateCleared:
		return "aggregate-cleared"
	case EventPattern:
		return "pattern-match"
	case EventCorrelation:
		return "correlation-pair"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one continuous-query notification.
type Event struct {
	Kind    EventKind
	WatchID int
	Stream  int
	// StreamB is the second stream of a correlation event (0 otherwise).
	StreamB int `json:",omitempty"`
	// Time is the discrete stream time the event fired at. For
	// correlation events it is the first stream's feature time.
	Time int64
	// TimeB is the second stream's feature time of a correlation event.
	TimeB int64 `json:",omitempty"`
	// Value is the verified aggregate (aggregate events), match distance
	// (pattern events) or correlation coefficient (correlation events).
	Value float64
}

// aggWatch is a standing Algorithm-2 query.
type aggWatch struct {
	id        int
	stream    int
	window    int
	threshold float64
	edge      bool
	firing    bool
	// agg maintains the watch window's (min, max) pair with worst-case
	// O(1) arrivals (internal/window.Agg, DABA) so candidate verification
	// needs no O(w) rescan of raw history — the rescan would land exactly
	// under the burst load the watch exists to catch. It stays nil when
	// the summary aggregate is SUM (float addition is
	// association-sensitive, so byte-identical verification keeps the
	// left-to-right fold, which the running-bound path already makes
	// cheap) or when retained history cannot serve the window (keeping
	// the fold path's error behavior identical). The comparison monoids
	// are bit-identical to the fold by construction, so enabling the
	// aggregator never changes a verified value — see DESIGN.md,
	// "Sliding-window aggregation".
	agg *window.Agg[window.MinMax]
	fn  aggregate.Func
	// exactFn is the bound exact-verifier closure handed to
	// checkAggregateVerified, created once at install (nil when agg is).
	exactFn func() (float64, bool)
}

// exactNow answers the exact window aggregate from the DABA verifier, or
// ok=false when it is absent or not yet full (callers fall back to the
// fold over raw history).
func (a *aggWatch) exactNow() (float64, bool) {
	if a.agg == nil || !a.agg.Full() {
		return 0, false
	}
	mm := a.agg.Query()
	switch a.fn {
	case aggregate.Max:
		return mm.Hi, true
	case aggregate.Min:
		return mm.Lo, true
	case aggregate.Spread:
		return mm.Spread(), true
	}
	return 0, false
}

// reseed rebuilds the DABA verifier from the retained suffix of raw
// history — the recovery pattern: an aggregator fed only the most recent
// values answers exactly like one that saw the whole stream, so snapshot
// restore and replica bootstrap re-derive verifier state the same way
// they re-derive edge state.
func (a *aggWatch) reseed(hist *window.History) {
	if a.agg == nil {
		return
	}
	a.agg = window.NewMinMaxAgg(a.window)
	t := hist.Now()
	lo := t - int64(a.window) + 1
	if ot := hist.OldestTime(); lo < ot {
		lo = ot
	}
	for tt := lo; tt <= t; tt++ {
		if v, ok := hist.At(tt); ok {
			a.agg.Push(window.MinMaxOf(v))
		}
	}
}

// matchKey identifies a reported pattern match for deduplication.
type matchKey struct {
	stream int
	end    int64
}

// patternWatch is a standing pattern query from the paper's Section 2.3
// model: a pattern database continuously monitored over the streams.
type patternWatch struct {
	id     int
	query  []float64
	radius float64
	every  int64 // evaluation period (defaults to W)
	// seen dedups reported matches. It is bounded: a key is kept only
	// while its match window is still inside retained history (older
	// matches can never be re-reported, so their keys are pruned).
	seen map[matchKey]bool
}

// pairKey identifies a reported correlation pair for deduplication.
type pairKey struct {
	a, b         int
	timeA, timeB int64
}

// corrWatch is a standing correlation query: every evaluation tick runs
// one detection round at the level and reports pairs not seen before.
type corrWatch struct {
	id     int
	level  int
	radius float64
	every  int64
	// seen dedups reported pairs, bounded like patternWatch.seen: keys
	// older than the level window cannot recur (rounds only report pairs
	// at the current feature times) and are pruned.
	seen map[pairKey]bool
}

// Watcher evaluates standing queries as values arrive — the paper's
// continuous-query model. Create one around a Monitor, register watches,
// then feed values through Push instead of Monitor.Append; each Push
// returns the events it triggered. The Watcher owns the Monitor's
// ingestion; do not interleave direct Appends.
type Watcher struct {
	mon    *Monitor
	nextID int
	// aggs holds the aggregate watches by stream, each list in install
	// order, so an arrival touches only its own stream's watches (and
	// emits their events in install order).
	aggs     [][]*aggWatch
	patterns []*patternWatch
	corrs    []*corrWatch
}

// NewWatcher wraps a monitor.
func NewWatcher(m *Monitor) *Watcher {
	return &Watcher{mon: m, nextID: 1}
}

// Monitor returns the wrapped monitor (for queries; not for Appends).
func (w *Watcher) Monitor() *Monitor { return w.mon }

// WatchAggregate registers a standing aggregate query on one stream. With
// edgeTriggered, events fire only on quiet→alarm transitions (plus a
// cleared event on alarm→quiet); otherwise every alarming time step emits
// an event. The watch id identifies events.
func (w *Watcher) WatchAggregate(stream, win int, threshold float64, edgeTriggered bool) (int, error) {
	if stream < 0 || stream >= w.mon.NumStreams() {
		return 0, fmt.Errorf("stardust: %w: stream %d out of range [0, %d)", ErrBadWatch, stream, w.mon.NumStreams())
	}
	if win <= 0 {
		return 0, fmt.Errorf("stardust: %w: aggregate window must be positive (got %d)", ErrBadWatch, win)
	}
	if math.IsNaN(threshold) {
		return 0, fmt.Errorf("stardust: %w: aggregate threshold is NaN", ErrBadWatch)
	}
	if _, err := w.mon.Summary().Config().DecomposeWindow(win); err != nil {
		return 0, fmt.Errorf("stardust: %w: %v", ErrBadWatch, err)
	}
	// An aggregate bound needs SUM sub-window extents; on a DWT summary
	// every evaluation would fail, so refuse at install time.
	if w.mon.Summary().Config().Transform == core.TransformDWT {
		return 0, fmt.Errorf("stardust: %w: core: aggregate query on a DWT summary", ErrBadWatch)
	}
	id := w.nextID
	w.nextID++
	a := &aggWatch{
		id: id, stream: stream, window: win, threshold: threshold, edge: edgeTriggered,
	}
	sum := w.mon.Summary()
	if f := sum.AggregateFunc(); f != aggregate.Sum && win <= sum.History(stream).Cap() {
		a.fn = f
		a.agg = window.NewMinMaxAgg(win)
		a.reseed(sum.History(stream))
		a.exactFn = a.exactNow
	}
	for len(w.aggs) <= stream {
		w.aggs = append(w.aggs, nil)
	}
	w.aggs[stream] = append(w.aggs[stream], a)
	wm := w.watchMetrics()
	wm.ActiveAggregate.Add(1)
	wm.Installs.Inc()
	return id, nil
}

// WatchPattern registers a standing pattern query over ALL streams: new
// matches (subsequences within radius of the pattern) are reported as they
// complete. The pattern is evaluated every W arrivals per stream (or every
// arrival for Online monitors with W=1 evaluation is too costly — the
// evaluation period is W in all modes).
func (w *Watcher) WatchPattern(query []float64, radius float64) (int, error) {
	if len(query) == 0 {
		return 0, fmt.Errorf("stardust: %w: pattern watch needs a non-empty query", ErrBadWatch)
	}
	if !(radius > 0) { // rejects zero, negatives and NaN in one comparison
		return 0, fmt.Errorf("stardust: %w: pattern radius must be positive (got %v)", ErrBadWatch, radius)
	}
	for i, v := range query {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("stardust: %w: pattern query[%d] is not finite (%v)", ErrBadWatch, i, v)
		}
	}
	// Validate the query shape against the monitor's mode now rather than
	// at the first evaluation.
	if _, err := w.mon.FindPattern(query, radius); err != nil {
		return 0, fmt.Errorf("stardust: %w: %v", ErrBadWatch, err)
	}
	id := w.nextID
	w.nextID++
	q := append([]float64(nil), query...)
	w.patterns = append(w.patterns, &patternWatch{
		id: id, query: q, radius: radius,
		every: int64(w.mon.Summary().Config().W),
		seen:  make(map[matchKey]bool),
	})
	wm := w.watchMetrics()
	wm.ActivePattern.Add(1)
	wm.Installs.Inc()
	return id, nil
}

// WatchCorrelation registers a standing correlation query at a resolution
// level: every W arrivals a detection round runs (Correlations) and pairs
// not already reported are emitted as EventCorrelation events, Stream and
// StreamB carrying the pair and Value its correlation coefficient.
func (w *Watcher) WatchCorrelation(level int, radius float64) (int, error) {
	if !(radius > 0) { // rejects zero, negatives and NaN in one comparison
		return 0, fmt.Errorf("stardust: %w: correlation radius must be positive (got %v)", ErrBadWatch, radius)
	}
	if level < 0 {
		return 0, fmt.Errorf("stardust: %w: correlation level must be non-negative (got %d)", ErrBadWatch, level)
	}
	// Validate the level and monitor mode now rather than at the first
	// evaluation tick.
	if _, err := w.mon.Correlations(level, radius); err != nil {
		return 0, fmt.Errorf("stardust: %w: %v", ErrBadWatch, err)
	}
	id := w.nextID
	w.nextID++
	w.corrs = append(w.corrs, &corrWatch{
		id: id, level: level, radius: radius,
		every: int64(w.mon.Summary().Config().W),
		seen:  make(map[pairKey]bool),
	})
	wm := w.watchMetrics()
	wm.ActiveCorrelation.Add(1)
	wm.Installs.Inc()
	return id, nil
}

// Unwatch removes a standing query by id. Ids are never reused: a watch
// registered after an Unwatch gets a fresh id, so late consumers can
// never misattribute its events to the removed watch.
func (w *Watcher) Unwatch(id int) bool {
	wm := w.watchMetrics()
	for s, list := range w.aggs {
		for i, a := range list {
			if a.id == id {
				w.aggs[s] = append(list[:i], list[i+1:]...)
				wm.ActiveAggregate.Add(-1)
				wm.Uninstalls.Inc()
				return true
			}
		}
	}
	for i, p := range w.patterns {
		if p.id == id {
			w.patterns = append(w.patterns[:i], w.patterns[i+1:]...)
			wm.ActivePattern.Add(-1)
			wm.Uninstalls.Inc()
			return true
		}
	}
	for i, c := range w.corrs {
		if c.id == id {
			w.corrs = append(w.corrs[:i], w.corrs[i+1:]...)
			wm.ActiveCorrelation.Add(-1)
			wm.Uninstalls.Inc()
			return true
		}
	}
	return false
}

// watchMetrics returns the monitor's standing-query instrument set (a
// shared zero-value set when the monitor carries no metrics, so call
// sites stay unconditional).
func (w *Watcher) watchMetrics() *obs.WatchMetrics {
	if w.mon.metrics != nil {
		return &w.mon.metrics.Watch
	}
	return &fallbackWatchMetrics
}

// fallbackWatchMetrics absorbs updates from metrics-less monitors.
var fallbackWatchMetrics = obs.WatchMetrics{EvaluateNanos: obs.NewHistogram(obs.LatencyBuckets())}

// Push ingests one value and evaluates the standing queries it can affect,
// returning the triggered events (nil when quiet).
//
// Ingestion routes through the monitor's resilience guard: inadmissible
// samples return a typed error (ErrBadValue, ErrStreamRange,
// ErrQuarantined) with no events and no clock advance, and repairable ones
// are repaired per the configured policy before evaluation.
//
// Partial-event contract: when a standing query fails mid-evaluation (for
// example a window that outgrew retained history), the events already
// triggered by THIS push are returned alongside the error. Callers must
// consume the returned events even when err != nil — they are verified
// alarms and will not be re-delivered.
func (w *Watcher) Push(stream int, v float64) ([]Event, error) {
	run, err := w.mon.admitOne(stream, v)
	if err != nil {
		return nil, err
	}
	return w.apply(stream, run, true)
}

// ingestBatch is Push for a run of values on one stream, with
// Monitor.IngestBatch's contract: inadmissible samples are skipped and
// their errors joined, and the admitted run is one WAL record.
func (w *Watcher) ingestBatch(stream int, vs []float64) ([]Event, error) {
	run, err := w.mon.admitBatch(stream, vs)
	events, aerr := w.apply(stream, run, true)
	if aerr != nil {
		err = errors.Join(err, aerr)
	}
	return events, err
}

// streamAggs returns the aggregate watches on stream, in install order.
func (w *Watcher) streamAggs(stream int) []*aggWatch {
	if stream < len(w.aggs) {
		return w.aggs[stream]
	}
	return nil
}

// watched reports whether any installed watch can fire on an arrival on
// stream: the stream's own aggregate watches, or any pattern or
// correlation watch (those span every stream).
func (w *Watcher) watched(stream int) bool {
	return len(w.streamAggs(stream)) > 0 || len(w.patterns) > 0 || len(w.corrs) > 0
}

// apply appends an admitted run for stream to the summary and evaluates
// the standing queries after every value — the one apply path behind
// live ingestion, WAL replay and replication. It returns the triggered
// events; replay suppresses them and replication delivers them. live
// marks live ingestion, which alone feeds the stardust_watch_*
// instruments and the append-latency samples. When no installed watch
// can fire on the stream the run goes to the summary in one AppendBatch
// (live runs still count one evaluation per value, in bulk). An
// evaluation error does not stop the run: the remaining values are
// applied and evaluated, and the errors are joined (the partial-event
// contract of Push).
func (w *Watcher) apply(stream int, run []float64, live bool) ([]Event, error) {
	if len(run) == 0 {
		return nil, nil
	}
	m := w.mon
	end := m.metrics.Ingest.Samples.Load()
	if !w.watched(stream) {
		if live {
			w.watchMetrics().Evaluations.Add(int64(len(run)))
			m.appendRun(stream, run, end)
		} else {
			m.sum.AppendBatch(stream, run)
		}
		return nil, nil
	}
	var events []Event
	var errs []error
	for i, v := range run {
		var evs []Event
		var err error
		if live {
			m.appendRun(stream, run[i:i+1], end-int64(len(run)-1-i))
			w.feedAggs(stream, v)
			evs, err = w.evaluateInstrumented(stream, m.Now(stream))
		} else {
			m.sum.Append(stream, v)
			w.feedAggs(stream, v)
			evs, err = w.evaluate(stream, m.Now(stream))
		}
		events = append(events, evs...)
		if err != nil {
			errs = append(errs, err)
		}
	}
	return events, errors.Join(errs...)
}

// feedAggs advances the stream's standing-aggregate verifiers with one
// already-admitted value — worst-case O(1) per watch.
func (w *Watcher) feedAggs(stream int, v float64) {
	mm := window.MinMaxOf(v)
	for _, a := range w.streamAggs(stream) {
		if a.agg != nil {
			a.agg.Push(mm)
		}
	}
}

// evaluateInstrumented wraps one live evaluation pass with the
// stardust_watch_* instruments: an evaluation counter driving sampled
// pass latency (one pass in obs.SampleEvery is timed, mirroring the
// append-latency discipline) and fired/cleared event counters. WAL
// replay and replication bypass it — replayed events are suppressed, not
// delivered, so they must not count as fired.
func (w *Watcher) evaluateInstrumented(stream int, t int64) ([]Event, error) {
	wm := w.watchMetrics()
	timed := obs.Sampled(wm.Evaluations.Inc())
	var start time.Time
	if timed {
		start = time.Now()
	}
	events, err := w.evaluate(stream, t)
	if timed {
		wm.EvaluateNanos.Observe(float64(time.Since(start)))
	}
	for _, e := range events {
		if e.Kind == EventAggregateCleared {
			wm.Cleared.Inc()
		} else {
			wm.Fired.Inc()
		}
	}
	return events, err
}

// primeRecovery re-derives the standing queries' edge and dedup state
// from an already-restored summary. Snapshot restore skips WAL replay
// for covered samples, so the per-sample evaluates that built this
// state in the pre-crash process never ran; without priming, an alarm
// that was firing across the crash would re-fire as a fresh edge and
// old pattern matches would be re-reported. Aggregate firing flags
// become the current alarm status (identical summary state ⇒ identical
// alarm), and matches or pairs the pre-crash run had already delivered
// — those complete by the last evaluation tick — are marked seen.
// Results newer than the last tick are deliberately NOT marked: the
// pre-crash run had not reported them yet, and the next tick will.
func (w *Watcher) primeRecovery() {
	for _, list := range w.aggs {
		for _, a := range list {
			// The monitor's state may have been replaced wholesale (replica
			// bootstrap), so the DABA verifier is rebuilt from the restored
			// history before the alarm status is re-derived.
			a.reseed(w.mon.Summary().History(a.stream))
			if w.mon.Now(a.stream) < int64(a.window)-1 {
				continue
			}
			if res, err := w.mon.checkAggregateVerified(a.stream, a.window, a.threshold, a.exactFn); err == nil {
				a.firing = res.Alarm
			}
		}
	}
	for _, p := range w.patterns {
		res, err := w.mon.FindPattern(p.query, p.radius)
		if err != nil {
			continue
		}
		for _, m := range res.Matches {
			if m.End <= lastTick(w.mon.Now(m.Stream), p.every) {
				p.seen[matchKey{stream: m.Stream, end: m.End}] = true
			}
		}
	}
	for _, c := range w.corrs {
		// Feature times only advance at tick boundaries, so every pair
		// visible now was already reported at the last round — if one ran.
		ticked := false
		for s := 0; s < w.mon.NumStreams(); s++ {
			if lastTick(w.mon.Now(s), c.every) >= 0 {
				ticked = true
				break
			}
		}
		if !ticked {
			continue
		}
		res, err := w.mon.Correlations(c.level, c.radius)
		if err != nil {
			continue
		}
		for _, pr := range res.Pairs {
			c.seen[pairKey{a: pr.A, b: pr.B, timeA: pr.TimeA, timeB: pr.TimeB}] = true
		}
	}
}

// lastTick is the most recent evaluation-tick time at or before stream
// time now for period every, or -1 when no tick has occurred yet.
func lastTick(now, every int64) int64 {
	if now < every-1 {
		return -1
	}
	return (now+1)/every*every - 1
}

// evaluate runs the standing queries affected by an arrival on stream at
// discrete time t and returns the triggered events.
func (w *Watcher) evaluate(stream int, t int64) ([]Event, error) {
	var events []Event

	for _, a := range w.streamAggs(stream) {
		if t < int64(a.window)-1 {
			continue
		}
		res, err := w.mon.checkAggregateVerified(a.stream, a.window, a.threshold, a.exactFn)
		if err != nil {
			return events, err
		}
		switch {
		case res.Alarm && (!a.edge || !a.firing):
			a.firing = true
			events = append(events, Event{
				Kind: EventAggregate, WatchID: a.id, Stream: stream, Time: t, Value: res.Exact,
			})
		case !res.Alarm && a.edge && a.firing:
			a.firing = false
			exact, ok := a.exactNow()
			if !ok {
				var err error
				exact, err = w.mon.Summary().ExactAggregate(a.stream, a.window)
				ok = err == nil
			}
			if ok {
				events = append(events, Event{
					Kind: EventAggregateCleared, WatchID: a.id, Stream: stream, Time: t, Value: exact,
				})
			}
		case !res.Alarm:
			a.firing = false
		}
	}

	for _, p := range w.patterns {
		if (t+1)%p.every != 0 || t < int64(len(p.query))-1 {
			continue
		}
		res, err := w.mon.FindPattern(p.query, p.radius)
		if err != nil {
			return events, err
		}
		for _, m := range res.Matches {
			key := matchKey{stream: m.Stream, end: m.End}
			if p.seen[key] {
				continue
			}
			p.seen[key] = true
			events = append(events, Event{
				Kind: EventPattern, WatchID: p.id, Stream: m.Stream, Time: m.End, Value: m.Dist,
			})
		}
		w.prunePatternSeen(p)
	}

	for _, c := range w.corrs {
		if (t+1)%c.every != 0 {
			continue
		}
		res, err := w.mon.Correlations(c.level, c.radius)
		if err != nil {
			return events, err
		}
		for _, pr := range res.Pairs {
			key := pairKey{a: pr.A, b: pr.B, timeA: pr.TimeA, timeB: pr.TimeB}
			if c.seen[key] {
				continue
			}
			c.seen[key] = true
			events = append(events, Event{
				Kind: EventCorrelation, WatchID: c.id,
				Stream: pr.A, StreamB: pr.B, Time: pr.TimeA, TimeB: pr.TimeB,
				Value: pr.Correlation,
			})
		}
		// Rounds only report pairs at the current feature times, so keys a
		// level window behind the present cannot recur; dropping them keeps
		// the dedup set proportional to the live pair population.
		horizon := int64(w.mon.Summary().Config().LevelWindow(c.level))
		for k := range c.seen {
			if k.timeA < t-horizon {
				delete(c.seen, k)
			}
		}
	}
	return events, nil
}

// prunePatternSeen drops dedup keys whose match window has left retained
// history: FindPattern can only re-report a match whose whole window
// [End−len(query)+1, End] is still verifiable against raw history, so
// older keys can never be needed again. This bounds the seen set by the
// number of reportable alignments instead of growing with total matches
// over the stream's lifetime.
func (w *Watcher) prunePatternSeen(p *patternWatch) {
	q := int64(len(p.query))
	oldest := make(map[int]int64, w.mon.NumStreams())
	for k := range p.seen {
		lo, ok := oldest[k.stream]
		if !ok {
			lo = w.mon.Summary().History(k.stream).OldestTime()
			oldest[k.stream] = lo
		}
		if k.end < lo+q-1 {
			delete(p.seen, k)
		}
	}
}
