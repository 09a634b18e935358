package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"stardust"
	"stardust/internal/core"
	"stardust/internal/mbr"
	"stardust/internal/stats"
)

// scatter fans one query RPC out to every shard and gathers the answers
// keyed by shard name. The error is nil when every shard answered,
// stardust.ErrPartialResult (wrapped) when some failed under the degrade
// policy, and a plain error when the query cannot be answered — a backend
// rejected it (4xx: every shard would say the same), every shard is down,
// or the policy is PartialFail and any shard is down.
func scatter[T any](c *Cluster, kind string, req map[string]any) (map[string]T, error) {
	shards := c.snapshotShards()
	c.met.Fanouts.Inc()
	start := time.Now()
	results := make([]T, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			errs[i] = c.callWithRetry(s, kind, req, &results[i])
		}(i, s)
	}
	wg.Wait()
	c.met.FanoutNanos.Observe(float64(time.Since(start).Nanoseconds()))

	out := make(map[string]T, len(shards))
	var failed []string
	var firstErr error
	for i, err := range errs {
		if err == nil {
			out[shards[i].cfg.Name] = results[i]
			continue
		}
		if isQueryRejection(err) {
			// The shard is up; the monitor refused the query. Not a
			// shard failure — propagate the rejection itself.
			c.met.QueryFailures.Inc()
			return nil, err
		}
		failed = append(failed, shards[i].cfg.Name)
		if firstErr == nil {
			firstErr = err
		}
	}
	switch {
	case len(failed) == 0:
		return out, nil
	case len(out) == 0:
		c.met.QueryFailures.Inc()
		return nil, fmt.Errorf("cluster: all %d shards unavailable: %v", len(shards), firstErr)
	case c.cfg.Partial == PartialFail:
		c.met.QueryFailures.Inc()
		return nil, fmt.Errorf("cluster: %d/%d shards unavailable (%v): %v", len(failed), len(shards), failed, firstErr)
	default:
		c.met.PartialResults.Inc()
		return out, fmt.Errorf("cluster: %w: %d/%d shards unavailable (%v): %v",
			stardust.ErrPartialResult, len(failed), len(shards), failed, firstErr)
	}
}

// isFatal reports whether a scatter error means the query has no usable
// result (as opposed to a partial one).
func isFatal(err error) bool {
	return err != nil && !errors.Is(err, stardust.ErrPartialResult)
}

// sortedNames returns the map's shard names sorted, so merges iterate
// deterministically.
func sortedNames[T any](m map[string]T) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// FindPattern scatters the similarity range query and merges the shard
// answers. Stream ids are already global (shards run full-width), so the
// merge is concatenate-and-sort — the same canonical (stream, end) order a
// single monitor emits.
func (c *Cluster) FindPattern(q []float64, r float64) (stardust.PatternResult, error) {
	outs, perr := scatter[stardust.PatternResult](c, "pattern", map[string]any{"query": q, "radius": r})
	if isFatal(perr) {
		return stardust.PatternResult{}, perr
	}
	var merged stardust.PatternResult
	for _, name := range sortedNames(outs) {
		res := outs[name]
		merged.Candidates = append(merged.Candidates, res.Candidates...)
		merged.Matches = append(merged.Matches, res.Matches...)
		merged.Relevant += res.Relevant
	}
	core.SortMatches(merged.Candidates)
	core.SortMatches(merged.Matches)
	return merged, perr
}

// NearestPatterns scatters the k-NN query and keeps the k globally nearest
// verified matches, ordered the way a single monitor orders them
// (distance, then stream, then end time).
func (c *Cluster) NearestPatterns(q []float64, k int) ([]stardust.Match, error) {
	outs, perr := scatter[[]stardust.Match](c, "nearest", map[string]any{"query": q, "k": k})
	if isFatal(perr) {
		return nil, perr
	}
	var all []stardust.Match
	for _, name := range sortedNames(outs) {
		all = append(all, outs[name]...)
	}
	core.SortNearest(all)
	if len(all) > k {
		all = all[:k]
	}
	return all, perr
}

// corrShardAnswer is one shard's reply to the correlations RPC: its
// intra-shard detection round plus the features the coordinator needs for
// the cross-shard screen.
type corrShardAnswer struct {
	Intra    stardust.CorrelationResult `json:"intra"`
	Features []stardust.LevelFeature    `json:"features"`
}

// laggedShardAnswer is one shard's reply to the lagged RPC.
type laggedShardAnswer struct {
	Pairs    []stardust.CorrPair     `json:"pairs"`
	Features []stardust.LevelFeature `json:"features"`
}

// ownedFeature is a shard feature prepared for cross-shard screening.
type ownedFeature struct {
	owner  string
	stream int
	t      int64
	latest bool
	box    mbr.MBR
	center []float64
}

// gatherFeatures flattens the shards' feature exports sorted by (stream,
// t). Every stream is owned — hence featured — by exactly one shard, so
// after sorting, index order is ascending global stream id: the screen's
// a < b invariant needs no id translation.
func gatherFeatures(names []string, get func(string) []stardust.LevelFeature) []ownedFeature {
	var out []ownedFeature
	for _, name := range names {
		for _, f := range get(name) {
			box := mbr.MBR{Min: f.Min, Max: f.Max}
			out = append(out, ownedFeature{
				owner:  name,
				stream: f.Stream,
				t:      f.T,
				latest: f.Latest,
				box:    box,
				center: box.Center(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].stream != out[j].stream {
			return out[i].stream < out[j].stream
		}
		return out[i].t < out[j].t
	})
	return out
}

// Correlations runs one detection round across the whole cluster: every
// shard answers its intra-shard pairs from its own index, then pairs
// straddling shard boundaries are screened against the shards' current
// features and verified on z-normalized raw windows fetched in one batch
// per shard. The screen direction matches a single monitor exactly — the
// lower-id stream's feature center probes the higher-id stream's box — so
// the merged, canonically sorted result is byte-identical to a single
// monitor over the same samples.
func (c *Cluster) Correlations(level int, r float64) (stardust.CorrelationResult, error) {
	outs, perr := scatter[corrShardAnswer](c, "correlations", map[string]any{"level": level, "radius": r})
	if isFatal(perr) {
		return stardust.CorrelationResult{}, perr
	}
	names := sortedNames(outs)
	var merged stardust.CorrelationResult
	for _, name := range names {
		merged.Candidates = append(merged.Candidates, outs[name].Intra.Candidates...)
		merged.Pairs = append(merged.Pairs, outs[name].Intra.Pairs...)
	}

	feats := gatherFeatures(names, func(n string) []stardust.LevelFeature { return outs[n].Features })
	r2 := r * r
	var cross []stardust.CorrPair
	for ai := 0; ai < len(feats); ai++ {
		fa := &feats[ai]
		if !fa.latest {
			continue
		}
		for bi := ai + 1; bi < len(feats); bi++ {
			fb := &feats[bi]
			if !fb.latest || fa.owner == fb.owner || fa.t != fb.t {
				continue
			}
			// One direction only, lower id probing higher: the in-shard
			// screen reports each unordered pair from the lower-id
			// endpoint's range query, and this must screen identically.
			if fb.box.MinDist2(fa.center) > r2 {
				continue
			}
			cross = append(cross, stardust.CorrPair{A: fa.stream, B: fb.stream, TimeA: fa.t, TimeB: fb.t})
		}
	}
	merged.Candidates = append(merged.Candidates, cross...)

	verified, verr := c.verifyCross(cross, level, r)
	merged.Pairs = append(merged.Pairs, verified...)
	core.SortPairs(merged.Candidates)
	core.SortPairs(merged.Pairs)
	if perr == nil {
		perr = verr
	}
	if isFatal(verr) {
		return stardust.CorrelationResult{}, verr
	}
	return merged, perr
}

// verifyCross confirms cross-shard candidates on exact z-normalized raw
// windows, fetched with one batched RPC per involved shard. Windows a
// shard can no longer serve (history rolled, shard down under the degrade
// policy) drop their candidates, exactly like a failed in-process
// verification.
func (c *Cluster) verifyCross(cands []stardust.CorrPair, level int, r float64) ([]stardust.CorrPair, error) {
	if len(cands) == 0 {
		return nil, nil
	}
	type probeKey struct {
		stream int
		t      int64
	}
	probesByShard := make(map[string][]stardust.ZNormProbe)
	seen := make(map[probeKey]bool)
	addProbe := func(stream int, t int64) {
		k := probeKey{stream, t}
		if seen[k] {
			return
		}
		seen[k] = true
		owner := c.Owner(stream)
		probesByShard[owner] = append(probesByShard[owner], stardust.ZNormProbe{Stream: stream, Level: level, T: t})
	}
	for _, p := range cands {
		addProbe(p.A, p.TimeA)
		addProbe(p.B, p.TimeB)
	}

	windows := make(map[probeKey][]float64)
	var mu sync.Mutex
	var wg sync.WaitGroup
	errsByShard := make(map[string]error)
	for owner, probes := range probesByShard {
		s := func() *shard {
			c.mu.RLock()
			defer c.mu.RUnlock()
			return c.shards[owner]
		}()
		if s == nil {
			mu.Lock()
			errsByShard[owner] = fmt.Errorf("cluster: shard %s left the ring", owner)
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(owner string, s *shard, probes []stardust.ZNormProbe) {
			defer wg.Done()
			var res []stardust.ZNormResult
			err := c.callWithRetry(s, "znorm", map[string]any{"probes": probes}, &res)
			mu.Lock()
			defer mu.Unlock()
			if err != nil || len(res) != len(probes) {
				if err == nil {
					err = fmt.Errorf("cluster: shard %s answered %d windows for %d probes", owner, len(res), len(probes))
				}
				errsByShard[owner] = err
				return
			}
			for i, pr := range probes {
				if res[i].OK {
					windows[probeKey{pr.Stream, pr.T}] = res[i].Values
				}
			}
		}(owner, s, probes)
	}
	wg.Wait()

	var perr error
	if len(errsByShard) > 0 {
		var firstErr error
		for _, name := range sortedNames(errsByShard) {
			firstErr = errsByShard[name]
			break
		}
		if c.cfg.Partial == PartialFail {
			c.met.QueryFailures.Inc()
			return nil, fmt.Errorf("cluster: verification failed on %d shards: %v", len(errsByShard), firstErr)
		}
		c.met.PartialResults.Inc()
		perr = fmt.Errorf("cluster: %w: verification failed on %d shards: %v",
			stardust.ErrPartialResult, len(errsByShard), firstErr)
	}

	var out []stardust.CorrPair
	for _, p := range cands {
		za, oka := windows[probeKey{p.A, p.TimeA}]
		zb, okb := windows[probeKey{p.B, p.TimeB}]
		if !oka || !okb {
			continue
		}
		if d := stats.Euclidean(za, zb); d <= r {
			p.Dist = d
			p.Correlation = stats.CorrelationFromZDist(d)
			out = append(out, p)
		}
	}
	return out, perr
}

// LaggedCorrelations screens correlated pairs across lags over the whole
// cluster: intra-shard screens run on each shard's index, then every
// stream's latest feature probes the other shards' retained features
// within maxLag time steps — the same containing-box criterion the
// in-process screen applies per probed feature time. Pairs are screened
// only, as on a single monitor.
func (c *Cluster) LaggedCorrelations(level int, r float64, maxLag int) ([]stardust.CorrPair, error) {
	outs, perr := scatter[laggedShardAnswer](c, "lagged", map[string]any{"level": level, "radius": r, "lag": maxLag})
	if isFatal(perr) {
		return nil, perr
	}
	names := sortedNames(outs)
	var merged []stardust.CorrPair
	for _, name := range names {
		merged = append(merged, outs[name].Pairs...)
	}

	feats := gatherFeatures(names, func(n string) []stardust.LevelFeature { return outs[n].Features })
	r2 := r * r
	for ai := range feats {
		fa := &feats[ai]
		if !fa.latest {
			continue
		}
		oldest := fa.t - int64(maxLag)
		for bi := range feats {
			fb := &feats[bi]
			if fa.owner == fb.owner || fb.t < oldest || fb.t > fa.t {
				continue
			}
			if fb.box.MinDist2(fa.center) > r2 {
				continue
			}
			merged = append(merged, stardust.CorrPair{A: fa.stream, B: fb.stream, TimeA: fa.t, TimeB: fb.t})
		}
	}
	core.SortPairs(merged)
	return merged, perr
}
