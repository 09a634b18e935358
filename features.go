package stardust

import (
	"errors"

	"stardust/internal/stats"
)

// ErrPartialResult marks a scatter-gather query answer assembled from a
// subset of a cluster's shards: one or more shards were unreachable and the
// coordinator's degrade policy admitted the merge anyway. The result
// returned alongside the error is valid for the shards that answered.
// Callers that must not act on incomplete answers treat it like any other
// error; callers that prefer availability test for it with errors.Is and
// use the result. Single-process monitors never return it.
var ErrPartialResult = errors.New("partial result: one or more shards unavailable")

// LevelFeature is one stream's summary feature box at a resolution level,
// exported in plain-data form so coordinators can merge correlation screens
// across process boundaries: the cross-shard phase of a clustered
// Correlations/LaggedCorrelations round screens these boxes pairwise.
type LevelFeature struct {
	// Stream is the stream id in the monitor's own id space.
	Stream int `json:"stream"`
	// T is the discrete end time of the window the feature summarizes.
	T int64 `json:"t"`
	// Latest reports whether this is the stream's most recent feature at
	// the level (lagged screens probe older retained features too).
	Latest bool `json:"latest"`
	// Min and Max are the feature box's low and high coordinates.
	Min []float64 `json:"min"`
	Max []float64 `json:"max"`
}

// FeatureSource is the surface a monitor exposes so an out-of-process
// coordinator can run the cross-shard correlation merge: the retained
// feature boxes for screening, and exact z-normalized raw windows for
// verification. SafeWatcher implements it; the HTTP server serves it on
// the /cluster/features and /cluster/znorm endpoints.
type FeatureSource interface {
	// RecentLevelFeatures returns each stream's latest feature at the
	// level plus, when maxLag > 0, every retained earlier feature within
	// maxLag time steps of it. An out-of-range level returns nil.
	RecentLevelFeatures(level, maxLag int) []LevelFeature
	// ZNormWindow returns the z-normalized raw window of the stream ending
	// at time t at the level's window length, or false when the history no
	// longer covers it.
	ZNormWindow(stream, level int, t int64) ([]float64, bool)
}

// ZNormProbe names one verification window for a batched ZNormWindow
// fetch: the coordinator collects every window a cross-shard verification
// round needs and fetches them in one request per shard.
type ZNormProbe struct {
	// Stream, Level and T identify the window as in
	// FeatureSource.ZNormWindow.
	Stream int   `json:"stream"`
	Level  int   `json:"level"`
	T      int64 `json:"t"`
}

// ZNormResult is the answer to one ZNormProbe.
type ZNormResult struct {
	// Values is the z-normalized window; nil when OK is false.
	Values []float64 `json:"values"`
	// OK reports whether the raw history still covered the window.
	OK bool `json:"ok"`
}

// Compile-time check: the concurrent backend exports its features for
// cross-process merges.
var _ FeatureSource = (*SafeWatcher)(nil)

// RecentLevelFeatures returns the watched monitor's retained level features
// under the read lock; see FeatureSource.
func (s *SafeWatcher) RecentLevelFeatures(level, maxLag int) []LevelFeature {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.w.mon.recentLevelFeatures(level, maxLag)
}

// ZNormWindow returns the z-normalized raw window of a stream ending at t,
// under the read lock; see FeatureSource. The returned slice is freshly
// allocated and safe to use after the lock is released.
func (s *SafeWatcher) ZNormWindow(stream, level int, t int64) ([]float64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.w.mon.zNormWindow(stream, level, t)
}

// recentLevelFeatures returns each stream's latest feature at the level
// plus (when maxLag > 0) every retained earlier feature within maxLag time
// steps of it, one entry per feature time — mirroring the enumeration of
// core's lagged screen.
func (m *Monitor) recentLevelFeatures(level, maxLag int) []LevelFeature {
	sum := m.sum
	if level < 0 || level >= sum.Config().Levels {
		return nil
	}
	rate := int64(sum.Config().Rate(level))
	var out []LevelFeature
	for i := 0; i < sum.NumStreams(); i++ {
		box, _, t2, ok := sum.CurrentFeature(i, level)
		if !ok {
			continue
		}
		out = append(out, LevelFeature{Stream: i, T: t2, Latest: true, Min: box.Min, Max: box.Max})
		for tau := t2 - rate; tau >= t2-int64(maxLag); tau -= rate {
			b, ok := sum.FeatureBoxAt(i, level, tau)
			if !ok {
				continue
			}
			out = append(out, LevelFeature{Stream: i, T: tau, Min: b.Min, Max: b.Max})
		}
	}
	return out
}

// zNormWindow returns the z-normalized raw window of a stream ending at t
// at the level's window length — the lock-free core of the
// verification-window export.
func (m *Monitor) zNormWindow(stream, level int, t int64) ([]float64, bool) {
	if level < 0 || level >= m.sum.Config().Levels {
		return nil, false
	}
	if stream < 0 || stream >= m.sum.NumStreams() {
		return nil, false
	}
	w := int64(m.sum.Config().LevelWindow(level))
	win, err := m.sum.History(stream).Range(t-w+1, t)
	if err != nil {
		return nil, false
	}
	return stats.ZNormalize(win), true
}
