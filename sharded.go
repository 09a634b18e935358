package stardust

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"stardust/internal/mbr"
	"stardust/internal/stats"
)

// ShardedMonitor partitions streams across independent Monitors, each
// behind its own lock, so ingestion scales across cores: appends to
// streams in different shards never contend. Aggregate checks route to the
// owning shard; pattern queries fan out to every shard and merge.
//
// Correlation monitoring spans shards in two phases: each shard answers
// intra-shard pairs from its own index, then the shards' current features
// are screened pairwise across shard boundaries and verified on raw
// history, so the merged result matches what a single monitor would
// report. The cross-shard screen is O(streams²) in the worst case — for
// correlation-dominated workloads a single Monitor's index remains the
// better fit.
type ShardedMonitor struct {
	shards  []*SafeWatcher
	perShrd int
	streams int
}

// NewSharded builds a sharded monitor. shards ≤ 0 selects GOMAXPROCS.
// cfg.Streams is the TOTAL stream count; it is divided contiguously:
// stream s lives in shard s / ceil(Streams/shards).
func NewSharded(cfg Config, shards int) (*ShardedMonitor, error) {
	if cfg.Streams <= 0 {
		return nil, fmt.Errorf("stardust: Streams must be positive, got %d", cfg.Streams)
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > cfg.Streams {
		shards = cfg.Streams
	}
	per := (cfg.Streams + shards - 1) / shards
	sm := &ShardedMonitor{perShrd: per, streams: cfg.Streams}
	remaining := cfg.Streams
	for remaining > 0 {
		n := per
		if n > remaining {
			n = remaining
		}
		scfg := cfg
		scfg.Streams = n
		// Durable partitions write one WAL per shard, so shards fsync and
		// trim independently; RecoverSharded reads the same layout back.
		if cfg.Durability.Dir != "" {
			scfg.Durability.Dir = shardWALDir(cfg.Durability.Dir, len(sm.shards))
		}
		m, err := New(scfg)
		if err != nil {
			sm.Close()
			return nil, err
		}
		sm.shards = append(sm.shards, NewSafeWatcher(m))
		remaining -= n
	}
	return sm, nil
}

// NumStreams returns the total stream count.
func (sm *ShardedMonitor) NumStreams() int { return sm.streams }

// NumShards returns the number of shards.
func (sm *ShardedMonitor) NumShards() int { return len(sm.shards) }

// locate maps a global stream id to (shard, local id), returning
// ErrStreamRange for ids outside [0, NumStreams) so API boundaries can
// reject bad requests instead of crashing the process.
func (sm *ShardedMonitor) locate(stream int) (*SafeWatcher, int, error) {
	if stream < 0 || stream >= sm.streams {
		return nil, 0, fmt.Errorf("stardust: %w: stream %d not in [0, %d)", ErrStreamRange, stream, sm.streams)
	}
	return sm.shards[stream/sm.perShrd], stream % sm.perShrd, nil
}

// Ingest ingests one value through the owning shard's resilience guard,
// returning a typed error (ErrStreamRange, ErrBadValue, ErrQuarantined)
// instead of panicking.
func (sm *ShardedMonitor) Ingest(stream int, v float64) error {
	shard, local, err := sm.locate(stream)
	if err != nil {
		return err
	}
	return shard.Ingest(local, v)
}

// IngestBatch ingests a run of values for one stream, routed once to the
// owning shard, which amortizes guard checks and lock traffic over the
// whole batch; see Monitor.IngestBatch for the skip-and-join contract.
func (sm *ShardedMonitor) IngestBatch(stream int, vs []float64) error {
	shard, local, err := sm.locate(stream)
	if err != nil {
		return err
	}
	return shard.IngestBatch(local, vs)
}

// IngestAll ingests one synchronized arrival across all streams through
// the shards' guards; see Monitor.IngestAll for the partial-failure
// contract.
func (sm *ShardedMonitor) IngestAll(vs []float64) error {
	if len(vs) != sm.streams {
		return fmt.Errorf("stardust: %w: IngestAll got %d values for %d streams",
			ErrStreamRange, len(vs), sm.streams)
	}
	var errs []error
	for i, v := range vs {
		if err := sm.Ingest(i, v); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Now returns the stream's most recent discrete time, panicking on
// out-of-range ids like Append.
func (sm *ShardedMonitor) Now(stream int) int64 {
	shard, local, err := sm.locate(stream)
	if err != nil {
		panic(err.Error())
	}
	return shard.Now(local)
}

// CheckAggregate routes to the owning shard. Out-of-range streams return
// ErrStreamRange.
func (sm *ShardedMonitor) CheckAggregate(stream, window int, threshold float64) (AggregateResult, error) {
	shard, local, err := sm.locate(stream)
	if err != nil {
		return AggregateResult{}, err
	}
	return shard.CheckAggregate(local, window, threshold)
}

// AggregateBound routes to the owning shard. Out-of-range streams return
// ErrStreamRange.
func (sm *ShardedMonitor) AggregateBound(stream, window int) (Interval, error) {
	shard, local, err := sm.locate(stream)
	if err != nil {
		return Interval{}, err
	}
	return shard.AggregateBound(local, window)
}

// FindPattern fans the query out to every shard in parallel and merges the
// results, translating stream ids back to the global space.
func (sm *ShardedMonitor) FindPattern(q []float64, r float64) (PatternResult, error) {
	results := make([]PatternResult, len(sm.shards))
	errs := make([]error, len(sm.shards))
	var wg sync.WaitGroup
	for i, shard := range sm.shards {
		wg.Add(1)
		go func(i int, shard *SafeWatcher) {
			defer wg.Done()
			results[i], errs[i] = shard.FindPattern(q, r)
		}(i, shard)
	}
	wg.Wait()
	var merged PatternResult
	for i, res := range results {
		if errs[i] != nil {
			return PatternResult{}, fmt.Errorf("stardust: shard %d: %v", i, errs[i])
		}
		base := i * sm.perShrd
		for _, c := range res.Candidates {
			c.Stream += base
			merged.Candidates = append(merged.Candidates, c)
		}
		for _, m := range res.Matches {
			m.Stream += base
			merged.Matches = append(merged.Matches, m)
		}
		merged.Relevant += res.Relevant
	}
	sortShardMatches(merged.Candidates)
	sortShardMatches(merged.Matches)
	return merged, nil
}

// NearestPatterns fans the k-NN query out to every shard and keeps the k
// globally nearest matches.
func (sm *ShardedMonitor) NearestPatterns(q []float64, k int) ([]Match, error) {
	results := make([][]Match, len(sm.shards))
	errs := make([]error, len(sm.shards))
	var wg sync.WaitGroup
	for i, shard := range sm.shards {
		wg.Add(1)
		go func(i int, shard *SafeWatcher) {
			defer wg.Done()
			results[i], errs[i] = shard.NearestPatterns(q, k)
		}(i, shard)
	}
	wg.Wait()
	var all []Match
	for i, ms := range results {
		if errs[i] != nil {
			return nil, fmt.Errorf("stardust: shard %d: %v", i, errs[i])
		}
		base := i * sm.perShrd
		for _, m := range ms {
			m.Stream += base
			all = append(all, m)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		if all[i].Stream != all[j].Stream {
			return all[i].Stream < all[j].Stream
		}
		return all[i].End < all[j].End
	})
	if len(all) > k {
		all = all[:k]
	}
	return all, nil
}

// Correlations runs one detection round across the whole partition. Each
// shard answers its intra-shard pairs from its own index in parallel;
// stream pairs straddling a shard boundary are then screened against the
// shards' current features (synchronous, same end time, box distance ≤ r)
// and verified on raw history — the same screen-then-verify contract as a
// single monitor.
func (sm *ShardedMonitor) Correlations(level int, r float64) (CorrelationResult, error) {
	results := make([]CorrelationResult, len(sm.shards))
	errs := make([]error, len(sm.shards))
	var wg sync.WaitGroup
	for i, shard := range sm.shards {
		wg.Add(1)
		go func(i int, shard *SafeWatcher) {
			defer wg.Done()
			results[i], errs[i] = shard.Correlations(level, r)
		}(i, shard)
	}
	wg.Wait()
	var merged CorrelationResult
	for i, res := range results {
		if errs[i] != nil {
			return CorrelationResult{}, fmt.Errorf("stardust: shard %d: %v", i, errs[i])
		}
		base := i * sm.perShrd
		for _, p := range res.Candidates {
			p.A += base
			p.B += base
			merged.Candidates = append(merged.Candidates, p)
		}
		for _, p := range res.Pairs {
			p.A += base
			p.B += base
			merged.Pairs = append(merged.Pairs, p)
		}
	}

	// Cross-shard phase. Features are collected shard by shard, so for
	// ai < bi the global ids already satisfy A < B when the shards differ.
	feats := sm.collectFeatures(level, 0)
	r2 := r * r
	for ai := 0; ai < len(feats); ai++ {
		fa := &feats[ai]
		for bi := ai + 1; bi < len(feats); bi++ {
			fb := &feats[bi]
			if fa.shard == fb.shard || fa.t != fb.t {
				continue
			}
			// The in-shard screen is symmetric (each endpoint's range query
			// can discover the pair), so either direction admits it.
			if fb.box.MinDist2(fa.center) > r2 && fa.box.MinDist2(fb.center) > r2 {
				continue
			}
			p := CorrPair{A: fa.global, B: fb.global, TimeA: fa.t, TimeB: fb.t}
			merged.Candidates = append(merged.Candidates, p)
			if d, ok := sm.verifyCrossPair(p, level); ok && d <= r {
				p.Dist = d
				p.Correlation = stats.CorrelationFromZDist(d)
				merged.Pairs = append(merged.Pairs, p)
			}
		}
	}
	sortCorrPairs(merged.Candidates)
	sortCorrPairs(merged.Pairs)
	return merged, nil
}

// LaggedCorrelations screens correlated pairs across lags over the whole
// partition: intra-shard screens run on each shard's index, then every
// stream's latest feature probes the other shards' retained features
// within maxLag time steps. Pairs are screened only, as on a single
// monitor.
func (sm *ShardedMonitor) LaggedCorrelations(level int, r float64, maxLag int) ([]CorrPair, error) {
	results := make([][]CorrPair, len(sm.shards))
	errs := make([]error, len(sm.shards))
	var wg sync.WaitGroup
	for i, shard := range sm.shards {
		wg.Add(1)
		go func(i int, shard *SafeWatcher) {
			defer wg.Done()
			results[i], errs[i] = shard.LaggedCorrelations(level, r, maxLag)
		}(i, shard)
	}
	wg.Wait()
	var merged []CorrPair
	for i, ps := range results {
		if errs[i] != nil {
			return nil, fmt.Errorf("stardust: shard %d: %v", i, errs[i])
		}
		base := i * sm.perShrd
		for _, p := range ps {
			p.A += base
			p.B += base
			merged = append(merged, p)
		}
	}

	feats := sm.collectFeatures(level, maxLag)
	r2 := r * r
	for ai := range feats {
		fa := &feats[ai]
		if !fa.latest {
			continue
		}
		oldest := fa.t - int64(maxLag)
		for bi := range feats {
			fb := &feats[bi]
			if fa.shard == fb.shard || fb.t < oldest || fb.t > fa.t {
				continue
			}
			if fb.box.MinDist2(fa.center) > r2 {
				continue
			}
			merged = append(merged, CorrPair{A: fa.global, B: fb.global, TimeA: fa.t, TimeB: fb.t})
		}
	}
	sortCorrPairs(merged)
	return merged, nil
}

// crossFeature is one stream's feature box at a level, translated to the
// global stream space for cross-shard screening.
type crossFeature struct {
	shard  int
	global int
	box    mbr.MBR
	center []float64
	t      int64
	latest bool
}

// collectFeatures gathers each shard's recent level features (latest, plus
// history within maxLag steps when maxLag > 0), shard by shard so global
// ids are ascending.
func (sm *ShardedMonitor) collectFeatures(level, maxLag int) []crossFeature {
	var out []crossFeature
	for i, shard := range sm.shards {
		base := i * sm.perShrd
		for _, f := range shard.recentLevelFeatures(level, maxLag) {
			out = append(out, crossFeature{
				shard:  i,
				global: base + f.stream,
				box:    f.box,
				center: f.center,
				t:      f.t,
				latest: f.latest,
			})
		}
	}
	return out
}

// verifyCrossPair computes the exact z-normalized distance of a
// cross-shard candidate from both shards' raw histories — the sharded
// counterpart of core's verifyCorrelation.
func (sm *ShardedMonitor) verifyCrossPair(p CorrPair, level int) (float64, bool) {
	sa, la, err := sm.locate(p.A)
	if err != nil {
		return 0, false
	}
	sb, lb, err := sm.locate(p.B)
	if err != nil {
		return 0, false
	}
	za, ok := sa.ZNormWindow(la, level, p.TimeA)
	if !ok {
		return 0, false
	}
	zb, ok := sb.ZNormWindow(lb, level, p.TimeB)
	if !ok {
		return 0, false
	}
	return stats.Euclidean(za, zb), true
}

func sortCorrPairs(ps []CorrPair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		if ps[i].B != ps[j].B {
			return ps[i].B < ps[j].B
		}
		return ps[i].TimeB < ps[j].TimeB
	})
}

// localFeature is one shard-local stream's feature box at a level.
type localFeature struct {
	stream int
	box    mbr.MBR
	center []float64
	t      int64
	latest bool
}

// recentLevelFeatures returns, under one read lock, each local stream's
// latest feature at the level plus (when maxLag > 0) every retained
// earlier feature within maxLag time steps of it, one entry per feature
// time — mirroring the enumeration of core's lagged screen.
func (s *SafeWatcher) recentLevelFeatures(level, maxLag int) []localFeature {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.w.mon.recentLevelFeatures(level, maxLag)
}

// recentLevelFeatures is the lock-free core of the feature export.
func (m *Monitor) recentLevelFeatures(level, maxLag int) []localFeature {
	sum := m.sum
	if level < 0 || level >= sum.Config().Levels {
		return nil
	}
	rate := int64(sum.Config().Rate(level))
	var out []localFeature
	for i := 0; i < sum.NumStreams(); i++ {
		box, _, t2, ok := sum.CurrentFeature(i, level)
		if !ok {
			continue
		}
		out = append(out, localFeature{stream: i, box: box, center: box.Center(), t: t2, latest: true})
		for tau := t2 - rate; tau >= t2-int64(maxLag); tau -= rate {
			b, ok := sum.FeatureBoxAt(i, level, tau)
			if !ok {
				continue
			}
			out = append(out, localFeature{stream: i, box: b, center: b.Center(), t: tau})
		}
	}
	return out
}

// zNormWindow returns the z-normalized raw window of a local stream ending
// at t at the level's window length — the lock-free core of the
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

// Metrics merges the shards' observability snapshots: counters sum,
// histograms merge bucket-wise, so pruning power and latency percentiles
// reflect the whole partition.
func (sm *ShardedMonitor) Metrics() MetricsSnapshot {
	var out MetricsSnapshot
	for i, shard := range sm.shards {
		if i == 0 {
			out = shard.Metrics()
			continue
		}
		out = out.Merge(shard.Metrics())
	}
	return out
}

// Stats merges the shards' snapshots.
func (sm *ShardedMonitor) Stats() Stats {
	var out Stats
	for i, shard := range sm.shards {
		st := shard.Stats()
		if i == 0 {
			out = st
			continue
		}
		out.Streams += st.Streams
		out.RawHistory += st.RawHistory
		for j := range out.Levels {
			out.Levels[j].ThreadBoxes += st.Levels[j].ThreadBoxes
			out.Levels[j].IndexEntries += st.Levels[j].IndexEntries
			if st.Levels[j].IndexHeight > out.Levels[j].IndexHeight {
				out.Levels[j].IndexHeight = st.Levels[j].IndexHeight
			}
		}
	}
	return out
}

func sortShardMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Stream != ms[j].Stream {
			return ms[i].Stream < ms[j].Stream
		}
		return ms[i].End < ms[j].End
	})
}

// Sharded snapshot container: the shards' SDS2 snapshots concatenated
// under one header, so a sharded deployment restores with its stream
// partition intact:
//
//	[4] magic "SDSH"
//	[4] shard count (little-endian uint32)
//	per shard: [8] payload length (little-endian uint64) + one SDS2 frame
//
// Each embedded SDS2 frame carries its own CRC32, so corruption inside any
// shard fails LoadSharded with ErrSnapshotCorrupt.
var shardedSnapshotMagic = [4]byte{'S', 'D', 'S', 'H'}

// Snapshot serializes every shard (each under its own read lock) into one
// SDSH container. Shards are snapshotted sequentially, so the container is
// consistent per shard, not across shards — ingestion proceeding during
// the snapshot may be captured in a later shard but not an earlier one.
func (sm *ShardedMonitor) Snapshot(w io.Writer) error {
	var header [8]byte
	copy(header[:4], shardedSnapshotMagic[:])
	binary.LittleEndian.PutUint32(header[4:8], uint32(len(sm.shards)))
	if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("stardust: writing sharded snapshot header: %v", err)
	}
	for i, shard := range sm.shards {
		var buf bytes.Buffer
		if err := shard.Snapshot(&buf); err != nil {
			return fmt.Errorf("stardust: snapshotting shard %d: %v", i, err)
		}
		var frame [8]byte
		binary.LittleEndian.PutUint64(frame[:], uint64(buf.Len()))
		if _, err := w.Write(frame[:]); err != nil {
			return fmt.Errorf("stardust: writing shard %d frame: %v", i, err)
		}
		if _, err := buf.WriteTo(w); err != nil {
			return fmt.Errorf("stardust: writing shard %d payload: %v", i, err)
		}
	}
	return nil
}

// LoadSharded reconstructs a sharded monitor from a Snapshot stream. The
// stream partition (shard count and per-shard stream spans) is recovered
// from the container. Like Load, restored shards start with the default
// ingestion guard.
func LoadSharded(r io.Reader) (*ShardedMonitor, error) {
	var header [8]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, fmt.Errorf("stardust: reading sharded snapshot header: %v", err)
	}
	if [4]byte(header[:4]) != shardedSnapshotMagic {
		return nil, fmt.Errorf("stardust: not a sharded snapshot (bad magic %q)", header[:4])
	}
	count := binary.LittleEndian.Uint32(header[4:8])
	if count == 0 {
		return nil, fmt.Errorf("stardust: %w: sharded snapshot with zero shards", ErrSnapshotCorrupt)
	}
	sm := &ShardedMonitor{}
	for i := 0; i < int(count); i++ {
		var frame [8]byte
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			return nil, fmt.Errorf("stardust: %w: shard %d frame: %v", ErrSnapshotCorrupt, i, err)
		}
		length := binary.LittleEndian.Uint64(frame[:])
		m, err := Load(io.LimitReader(r, int64(length)))
		if err != nil {
			return nil, fmt.Errorf("stardust: shard %d: %w", i, err)
		}
		sm.shards = append(sm.shards, NewSafeWatcher(m))
		sm.streams += m.NumStreams()
	}
	// The partition is contiguous: every shard but the last holds the full
	// per-shard span, so shard 0's stream count is the divisor.
	sm.perShrd = sm.shards[0].NumStreams()
	return sm, nil
}
