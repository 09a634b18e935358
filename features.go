package stardust

import "errors"

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
// Correlations/LaggedCorrelations round screens these boxes pairwise
// exactly the way ShardedMonitor screens its shards' in-process features.
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
// verification. SafeWatcher and ShardedMonitor implement it; the HTTP
// server serves it on the /cluster/features and /cluster/znorm endpoints.
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

// Compile-time checks: every lock-guarded monitor flavor exports its
// features for cross-process merges.
var (
	_ FeatureSource = (*SafeWatcher)(nil)
	_ FeatureSource = (*ShardedMonitor)(nil)
)

// exportFeatures converts the internal feature form to the plain-data one.
func exportFeatures(feats []localFeature) []LevelFeature {
	out := make([]LevelFeature, 0, len(feats))
	for _, f := range feats {
		out = append(out, LevelFeature{
			Stream: f.stream, T: f.t, Latest: f.latest,
			Min: f.box.Min, Max: f.box.Max,
		})
	}
	return out
}

// RecentLevelFeatures returns the watched monitor's retained level features
// in exported form, under the read lock; see FeatureSource.
func (s *SafeWatcher) RecentLevelFeatures(level, maxLag int) []LevelFeature {
	return exportFeatures(s.recentLevelFeatures(level, maxLag))
}

// ZNormWindow returns the z-normalized raw window of a stream ending at t,
// under the read lock; see FeatureSource. The returned slice is freshly
// allocated and safe to use after the lock is released.
func (s *SafeWatcher) ZNormWindow(stream, level int, t int64) ([]float64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.w.mon.zNormWindow(stream, level, t)
}

// RecentLevelFeatures returns the partition's retained level features with
// stream ids translated to the global space; see FeatureSource.
func (sm *ShardedMonitor) RecentLevelFeatures(level, maxLag int) []LevelFeature {
	feats := sm.collectFeatures(level, maxLag)
	out := make([]LevelFeature, 0, len(feats))
	for _, f := range feats {
		out = append(out, LevelFeature{
			Stream: f.global, T: f.t, Latest: f.latest,
			Min: f.box.Min, Max: f.box.Max,
		})
	}
	return out
}

// ZNormWindow routes the window fetch to the owning shard; see
// FeatureSource.
func (sm *ShardedMonitor) ZNormWindow(stream, level int, t int64) ([]float64, bool) {
	shard, local, err := sm.locate(stream)
	if err != nil {
		return nil, false
	}
	return shard.ZNormWindow(local, level, t)
}
