package core

import (
	"fmt"
	"math"

	"stardust/internal/aggregate"
	"stardust/internal/mbr"
	"stardust/internal/obs"
	"stardust/internal/rstar"
	"stardust/internal/stats"
	"stardust/internal/window"
)

// Summary is the Stardust multi-stream, multi-resolution summary: per
// stream, a bounded raw history plus one thread of feature MBRs per
// resolution level; across streams, one R*-tree per level indexing all
// sealed MBRs. It implements the Compute_Coefficients procedure
// (Algorithm 1) incrementally on every arrival.
type Summary struct {
	cfg     Config
	dim     int
	agg     aggregate.Func // valid when cfg.Transform != TransformDWT
	trees   []*rstar.Tree[BoxRef]
	streams []*streamState
	// workers is the query-stage fan-out width (see parallel.go); ≤ 1 runs
	// every stage serially.
	workers int
	// mets is the attached observability sink (nil = uninstrumented); the
	// trees hold their own pointer into mets.Tree.
	mets *obs.Metrics
}

type streamState struct {
	id     int
	hist   *window.History
	levels []*streamLevel
}

// NewSummary constructs a summary for the given configuration with
// numStreams streams (ids 0..numStreams−1). The configuration is validated
// and defaulted; an invalid configuration returns an error.
func NewSummary(cfg Config, numStreams int) (*Summary, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	if numStreams <= 0 {
		return nil, fmt.Errorf("core: non-positive stream count %d", numStreams)
	}
	s := &Summary{cfg: cfg, dim: cfg.FeatureDim()}
	if cfg.Transform != TransformDWT {
		s.agg = cfg.Transform.aggFunc()
	}
	s.trees = make([]*rstar.Tree[BoxRef], cfg.Levels)
	for j := range s.trees {
		s.trees[j] = rstar.New[BoxRef](s.dim, cfg.IndexOptions)
	}
	for i := 0; i < numStreams; i++ {
		s.addStream()
	}
	return s, nil
}

// AddStream registers a new empty stream and returns its id. Streams may
// join a live summary at any time; their features populate as values
// arrive. AppendAll callers must account for the grown stream count.
func (s *Summary) AddStream() int {
	s.addStream()
	return len(s.streams) - 1
}

func (s *Summary) addStream() {
	st := &streamState{
		id:     len(s.streams),
		hist:   window.NewHistory(s.cfg.HistoryN),
		levels: make([]*streamLevel, s.cfg.Levels),
	}
	for j := range st.levels {
		st.levels[j] = &streamLevel{}
	}
	s.streams = append(s.streams, st)
}

// Config returns the validated configuration.
func (s *Summary) Config() Config { return s.cfg }

// AggregateFunc returns the scalar aggregate the summary's transform
// monitors (aggregate.Sum, Max, Min or Spread). It is meaningful only for
// non-DWT transforms; on a DWT summary the zero Func is returned.
func (s *Summary) AggregateFunc() aggregate.Func { return s.agg }

// NumStreams returns the number of streams.
func (s *Summary) NumStreams() int { return len(s.streams) }

// Now returns the discrete time of the most recent value of the stream
// (−1 before the first value).
func (s *Summary) Now(stream int) int64 { return s.stream(stream).hist.Now() }

// Tree exposes the level-j index for inspection and tests.
func (s *Summary) Tree(level int) *rstar.Tree[BoxRef] { return s.trees[level] }

// SetMetrics attaches an observability sink: every level index reports its
// node accesses, splits and reinsertions into m.Tree, so the paper's index
// cost model (node accesses per operation) is measurable at runtime. A nil
// m detaches instrumentation.
func (s *Summary) SetMetrics(m *obs.Metrics) {
	s.mets = m
	var tm *obs.TreeMetrics
	if m != nil {
		tm = &m.Tree
		m.Parallel.Workers.Set(int64(s.Workers()))
	}
	for _, t := range s.trees {
		t.SetMetrics(tm)
	}
}

// History returns the retained raw history of a stream.
func (s *Summary) History(stream int) *window.History { return s.stream(stream).hist }

func (s *Summary) stream(id int) *streamState {
	if id < 0 || id >= len(s.streams) {
		panic(fmt.Sprintf("core: stream %d out of range [0, %d)", id, len(s.streams)))
	}
	return s.streams[id]
}

// Append ingests one value for a stream, running Algorithm 1: features are
// computed bottom-up for every level whose update rate fires at this time,
// higher levels from the boxes of the level below (or directly from raw
// history under Direct), grouped into capacity-c MBRs and indexed.
//
// Non-finite values are rejected with a panic: a NaN would silently poison
// every feature and bound derived from its window, so failing fast at the
// ingestion boundary is the only safe contract.
func (s *Summary) Append(stream int, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("core: non-finite value %v for stream %d", v, stream))
	}
	st := s.stream(stream)
	s.appendOne(st, v)
	s.evictOld(st, st.hist.Now())
}

// AppendBatch ingests a run of consecutive values for one stream,
// producing exactly the state a loop of Append would: per-value feature
// emission follows the same schedule, but the stream lookup, the
// non-finite scan and the eviction pass are hoisted out of the per-sample
// path and run once per batch. Eviction is deferred to the end of the
// batch — safe because eviction only discards boxes older than the final
// horizon, which no in-batch feature computation can reference.
func (s *Summary) AppendBatch(stream int, vs []float64) {
	if len(vs) == 0 {
		return
	}
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("core: non-finite value %v for stream %d", v, stream))
		}
	}
	st := s.stream(stream)
	for _, v := range vs {
		s.appendOne(st, v)
	}
	s.evictOld(st, st.hist.Now())
}

// appendOne appends a single admitted value and emits the features whose
// schedules fire, without evicting (the callers own the eviction cadence).
func (s *Summary) appendOne(st *streamState, v float64) {
	st.hist.Append(v)
	t := st.hist.Now()
	for j := 0; j < s.cfg.Levels; j++ {
		wj := s.cfg.LevelWindow(j)
		if t < int64(wj)-1 {
			break
		}
		tj := int64(s.cfg.Rate(j))
		if (t+1)%tj != 0 {
			// Rates are nested (T_j | T_{j+1}), so no higher level fires
			// either.
			break
		}
		var fb mbr.MBR
		if j == 0 || s.cfg.Direct {
			win, err := st.hist.Last(wj)
			if err != nil {
				panic(fmt.Sprintf("core: history underrun at level %d: %v", j, err))
			}
			if s.zcomposite() {
				fb = s.evalComposite(win)
			} else {
				fb = s.evalDirect(win)
			}
		} else {
			half := int64(wj / 2)
			left, okL := st.levels[j-1].lookup(t - half)
			right, okR := st.levels[j-1].lookup(t)
			if !okL || !okR {
				// The lower level has not produced both halves yet (can
				// happen transiently right at warm-up); skip this level.
				break
			}
			fb = s.mergeBoxes(left, right)
		}
		s.appendFeature(st, j, fb, t)
	}
}

// AppendAll ingests one synchronized arrival for every stream: vs[i] is the
// new value of stream i.
func (s *Summary) AppendAll(vs []float64) {
	if len(vs) != len(s.streams) {
		panic(fmt.Sprintf("core: AppendAll got %d values for %d streams", len(vs), len(s.streams)))
	}
	for i, v := range vs {
		s.Append(i, v)
	}
}

// appendFeature adds the feature box to the stream's level thread, sealing
// full boxes and indexing them on the levels that keep an index.
func (s *Summary) appendFeature(st *streamState, level int, fb mbr.MBR, t int64) {
	sealed := st.levels[level].addFeature(fb, t, s.cfg.BoxCapacity)
	if sealed != nil && s.cfg.indexLevel(level) {
		sealed.indexed = true
		s.trees[level].Insert(s.featureView(sealed.box, level), BoxRef{Stream: st.id, T1: sealed.t1, T2: sealed.t2})
	}
}

// evictOld drops boxes older than the history horizon from the stream's
// threads, and removes boxes older than the index horizon from the level
// indexes (the thread may outlive the index entry when IndexHorizon <
// HistoryN). Levels without an index hold no indexed box, so they only
// trim their threads.
func (s *Summary) evictOld(st *streamState, now int64) {
	idxHorizon := now - int64(s.cfg.IndexHorizon) + 1
	if idxHorizon > 0 && s.cfg.IndexHorizon < s.cfg.HistoryN {
		for j, sl := range st.levels {
			if !s.cfg.indexLevel(j) {
				continue
			}
			for sl.idxFront < len(sl.boxes) {
				lb := &sl.boxes[sl.idxFront]
				if lb.t2 >= idxHorizon {
					break
				}
				s.deindex(st, j, lb)
				sl.idxFront++
			}
		}
	}
	horizon := now - int64(s.cfg.HistoryN) + 1
	if horizon <= 0 {
		return
	}
	for j, sl := range st.levels {
		evicted := sl.evict(horizon)
		for i := range evicted {
			s.deindex(st, j, &evicted[i])
		}
	}
}

// deindex deletes an indexed box from the level index and clears its flag.
func (s *Summary) deindex(st *streamState, level int, lb *levelBox) {
	if !lb.indexed {
		return
	}
	lb.indexed = false
	t1 := lb.t1
	s.trees[level].Delete(s.featureView(lb.box, level), func(ref BoxRef) bool {
		return ref.Stream == st.id && ref.T1 == t1
	})
}

// evalDirect computes the exact feature of a raw window as a point box.
func (s *Summary) evalDirect(win []float64) mbr.MBR {
	if s.cfg.Transform != TransformDWT {
		return mbr.FromPoint(s.agg.Eval(win))
	}
	norm := s.normalize(win)
	depth := 0
	for m := len(norm); m > s.cfg.F; m /= 2 {
		depth++
	}
	return mbr.FromPoint(s.cfg.Filter.ApproxDepth(norm, depth))
}

// normalize applies the configured window normalization.
func (s *Summary) normalize(win []float64) []float64 {
	switch s.cfg.Normalization {
	case NormUnit:
		return stats.UnitNormalize(win, s.cfg.Rmax)
	case NormZ:
		return stats.ZNormalize(win)
	default:
		out := make([]float64, len(win))
		copy(out, win)
		return out
	}
}

// mergeBoxes computes the parent feature bound from the two half-window
// boxes (Lemmas 4.1/4.2 for aggregates, Lemma A.1/A.2 for DWT). With
// capacity 1 the inputs are point boxes and the result is exact.
func (s *Summary) mergeBoxes(left, right mbr.MBR) mbr.MBR {
	if s.zcomposite() {
		return s.mergeComposite(left, right)
	}
	if s.cfg.Transform == TransformDWT {
		merged := mergeDWT(left, right, s.cfg)
		if s.cfg.Normalization == NormUnit {
			// Unit normalization divides by sqrt(w)·Rmax; the parent window
			// is twice as long, so the merged coefficients carry an extra
			// factor of sqrt(2) that must be divided out (the merge path
			// normalized by sqrt(w/2)·Rmax).
			for i := range merged.Min {
				merged.Min[i] /= math.Sqrt2
				merged.Max[i] /= math.Sqrt2
			}
		}
		return merged
	}
	return mergeAggregate(left, right, s.agg)
}

// mergeAggregate applies the interval arithmetic of Lemma 4.2 per
// dimension.
func mergeAggregate(left, right mbr.MBR, f aggregate.Func) mbr.MBR {
	switch f {
	case aggregate.Sum:
		return mbr.MBR{
			Min: []float64{left.Min[0] + right.Min[0]},
			Max: []float64{left.Max[0] + right.Max[0]},
		}
	case aggregate.Max:
		return mbr.MBR{
			Min: []float64{math.Max(left.Min[0], right.Min[0])},
			Max: []float64{math.Max(left.Max[0], right.Max[0])},
		}
	case aggregate.Min:
		return mbr.MBR{
			Min: []float64{math.Min(left.Min[0], right.Min[0])},
			Max: []float64{math.Min(left.Max[0], right.Max[0])},
		}
	case aggregate.Spread:
		// Dimension 0 bounds the window minimum, dimension 1 the maximum.
		return mbr.MBR{
			Min: []float64{
				math.Min(left.Min[0], right.Min[0]),
				math.Max(left.Min[1], right.Min[1]),
			},
			Max: []float64{
				math.Min(left.Max[0], right.Max[0]),
				math.Max(left.Max[1], right.Max[1]),
			},
		}
	default:
		panic(fmt.Sprintf("core: mergeAggregate unsupported func %v", f))
	}
}

// CurrentFeature returns the most recent feature box of the stream at the
// given level together with the end-time range of the box it belongs to.
// ok is false when no feature has been computed yet.
func (s *Summary) CurrentFeature(stream, level int) (box mbr.MBR, t1, t2 int64, ok bool) {
	box, t1, t2, ok = s.stream(stream).levels[level].latest()
	if ok {
		box = s.featureView(box, level)
	}
	return box, t1, t2, ok
}

// FeatureBoxAt returns the box at the given level containing the feature
// with end-time t, when retained.
func (s *Summary) FeatureBoxAt(stream, level int, t int64) (mbr.MBR, bool) {
	box, ok := s.stream(stream).levels[level].lookup(t)
	if ok {
		box = s.featureView(box, level)
	}
	return box, ok
}

// ExactFeature recomputes the exact feature vector of the stream window
// ending at time t at the given level from raw history (used for
// verification and tests). It fails when the raw values are no longer
// retained.
func (s *Summary) ExactFeature(stream, level int, t int64) ([]float64, error) {
	st := s.stream(stream)
	wj := int64(s.cfg.LevelWindow(level))
	win, err := st.hist.Range(t-wj+1, t)
	if err != nil {
		return nil, err
	}
	fb := s.evalDirect(win)
	return fb.Min, nil
}
