package core

import (
	"fmt"
	"sort"

	"stardust/internal/mbr"
	"stardust/internal/stats"
)

// CorrPair reports one correlated stream pair found at a resolution level:
// the feature of stream A ending at TimeA was within the query radius of
// the feature of stream B ending at TimeB. Dist is the verified exact
// distance between the z-normalized raw windows (set when verified);
// Correlation is the corresponding Pearson coefficient 1 − Dist²/2.
type CorrPair struct {
	A, B         int
	TimeA, TimeB int64
	Dist         float64
	Correlation  float64
}

// CorrelationResult is the outcome of one correlation detection round.
type CorrelationResult struct {
	// Candidates passed the index range query.
	Candidates []CorrPair
	// Pairs verified within the distance threshold on raw history.
	Pairs []CorrPair
}

// Precision returns verified pairs over candidates (1 when none were
// retrieved).
func (r CorrelationResult) Precision() float64 {
	if len(r.Candidates) == 0 {
		return 1
	}
	return float64(len(r.Pairs)) / float64(len(r.Candidates))
}

// CorrelationScreen performs one detection round per Section 5.3 at the
// given level and returns the screened candidate pairs: for every stream
// whose current level feature ends at the stream's most recent feature
// time, a range query with radius r retrieves nearby features of other
// streams (synchronous — only features ending at the same time are
// considered). This is what the monitor reports in real time; precision is
// governed by how much signal the f retained coefficients carry. Pairs are
// reported once (A < B).
func (s *Summary) CorrelationScreen(level int, r float64) ([]CorrPair, error) {
	if err := s.checkCorrelationLevel(level); err != nil {
		return nil, err
	}
	tails := s.unindexedTails(level)
	// Each stream's probe is independent, so the probes shard across the
	// worker pool; per-stream results land in index-addressed slots and
	// concatenate in stream order, matching the serial loop's output
	// exactly. Each unordered pair is discovered from both endpoints'
	// probes (the distance screen is symmetric); keeping only higher-id
	// partners reports it exactly once without a dedup map.
	perStream := make([][]CorrPair, len(s.streams))
	s.forEach(len(s.streams), func(i int) {
		perStream[i] = s.probeSynchronous(s.streams[i], level, r, tails, true)
	})
	var out []CorrPair
	for _, ps := range perStream {
		out = append(out, ps...)
	}
	sortPairs(out)
	return out, nil
}

// CorrelationProbe is one stream's share of a detection round, for a
// standing correlation query evaluated as features arrive (the paper's
// §5.3 model: the new feature probes the index, then joins it). It probes
// with the stream's latest feature at level, keeps every other stream
// whose feature ends at the same time, and returns the pairs verified on
// raw history, each ordered A < B and sorted like CorrelationQuery's.
// A pair is thus found by whichever of its two features arrives second.
// When the latest feature ends at or before since, it was probed when it
// arrived and nothing is returned.
func (s *Summary) CorrelationProbe(stream, level int, r float64, since int64) ([]CorrPair, error) {
	if err := s.checkCorrelationLevel(level); err != nil {
		return nil, err
	}
	st := s.stream(stream)
	if _, _, t2, ok := st.levels[level].latest(); !ok || t2 <= since {
		return nil, nil
	}
	pairs := s.probeSynchronous(st, level, r, s.unindexedTails(level), false)
	out := pairs[:0]
	for _, p := range pairs {
		if p.A > p.B {
			p.A, p.B, p.TimeA, p.TimeB = p.B, p.A, p.TimeB, p.TimeA
		}
		if p, ok := s.verifyPair(level, p, r); ok {
			out = append(out, p)
		}
	}
	sortPairs(out)
	return out, nil
}

// checkCorrelationLevel validates a correlation query against the summary.
func (s *Summary) checkCorrelationLevel(level int) error {
	if s.cfg.Transform != TransformDWT {
		return fmt.Errorf("core: correlation query on a %v summary", s.cfg.Transform)
	}
	if level < 0 || level >= s.cfg.Levels {
		return fmt.Errorf("core: level %d out of range [0, %d)", level, s.cfg.Levels)
	}
	return nil
}

// levelTail is a stream's latest box at a level while it is not in the
// level index, with the reference it would be indexed under.
type levelTail struct {
	box mbr.MBR
	ref BoxRef
}

// unindexedTails collects the still-unsealed (hence unindexed) trailing
// boxes at a level; they must be screened alongside the index so fresh
// features are not missed. With the index disabled every latest box is
// unindexed, so this list covers all current features and synchronous
// screening degrades to a pairwise scan — older sealed boxes can never
// satisfy the synchronous time filter, so skipping them is safe.
func (s *Summary) unindexedTails(level int) []levelTail {
	var tails []levelTail
	for _, other := range s.streams {
		sl := other.levels[level]
		if len(sl.boxes) == 0 {
			continue
		}
		lb := &sl.boxes[len(sl.boxes)-1]
		if lb.indexed {
			continue
		}
		tails = append(tails, levelTail{box: s.featureView(lb.box, level), ref: BoxRef{Stream: other.id, T1: lb.t1, T2: lb.t2}})
	}
	return tails
}

// probeSynchronous is one stream's synchronous probe at level: a sphere
// query of radius r around its latest feature box, against the level
// index plus the unindexed tails, keeping the other streams whose box
// ends at the same time (only higher ids with higherOnly). Pairs carry
// the probing stream as A.
func (s *Summary) probeSynchronous(st *streamState, level int, r float64, tails []levelTail, higherOnly bool) []CorrPair {
	box, _, t2, ok := st.levels[level].latest()
	if !ok {
		return nil
	}
	center := s.featureView(box, level).Center()
	var out []CorrPair
	consider := func(ref BoxRef) {
		if ref.Stream == st.id || (higherOnly && ref.Stream < st.id) || ref.T2 != t2 {
			return
		}
		out = append(out, CorrPair{A: st.id, B: ref.Stream, TimeA: t2, TimeB: ref.T2})
	}
	s.trees[level].SearchSphere(center, r, func(_ mbr.MBR, ref BoxRef) bool {
		consider(ref)
		return true
	})
	for k := range tails {
		p := &tails[k]
		if p.ref.Stream == st.id || p.box.MinDist2(center) > r*r {
			continue
		}
		consider(p.ref)
	}
	return out
}

// VerifyPairs computes the exact z-norm distance of each screened pair on
// raw history and returns those truly within r, with Dist and Correlation
// filled in. Verification of independent pairs fans across the worker
// pool; survivors merge in input order. Intended to run outside any timed
// detection path.
func (s *Summary) VerifyPairs(level int, pairs []CorrPair, r float64) []CorrPair {
	verified := make([]CorrPair, len(pairs))
	ok := make([]bool, len(pairs))
	s.forEach(len(pairs), func(i int) {
		verified[i], ok[i] = s.verifyPair(level, pairs[i], r)
	})
	var out []CorrPair
	for i, p := range verified {
		if ok[i] {
			out = append(out, p)
		}
	}
	sortPairs(out)
	return out
}

// verifyPair confirms one screened pair on raw history, filling in Dist
// and Correlation; ok is false when it lies beyond r or its windows are
// no longer retained.
func (s *Summary) verifyPair(level int, p CorrPair, r float64) (CorrPair, bool) {
	dist, ok := s.verifyCorrelation(p.A, p.B, level, p.TimeA, p.TimeB)
	if !ok || dist > r {
		return p, false
	}
	p.Dist = dist
	p.Correlation = stats.CorrelationFromZDist(dist)
	return p, true
}

// CorrelationQuery runs one screened + verified detection round: the
// Candidates are the screened pairs the monitor reports, the Pairs are the
// subset confirmed on raw history.
func (s *Summary) CorrelationQuery(level int, r float64) (CorrelationResult, error) {
	cands, err := s.CorrelationScreen(level, r)
	if err != nil {
		return CorrelationResult{}, err
	}
	return CorrelationResult{
		Candidates: cands,
		Pairs:      s.VerifyPairs(level, cands, r),
	}, nil
}

// verifyCorrelation computes the exact distance between the z-normalized
// windows of streams a and b at the given level ending at times ta and tb.
func (s *Summary) verifyCorrelation(a, b, level int, ta, tb int64) (float64, bool) {
	w := int64(s.cfg.LevelWindow(level))
	ra, err := s.stream(a).hist.Range(ta-w+1, ta)
	if err != nil {
		return 0, false
	}
	rb, err := s.stream(b).hist.Range(tb-w+1, tb)
	if err != nil {
		return 0, false
	}
	return stats.Euclidean(stats.ZNormalize(ra), stats.ZNormalize(rb)), true
}

// ScanCorrelatedPairs is the linear-scan ground truth: every stream pair
// whose current level-window z-norms are within distance r, computed
// directly from raw history at the given feature end-time.
func (s *Summary) ScanCorrelatedPairs(level int, t int64, r float64) []CorrPair {
	var out []CorrPair
	for a := 0; a < len(s.streams); a++ {
		for b := a + 1; b < len(s.streams); b++ {
			if dist, ok := s.verifyCorrelation(a, b, level, t, t); ok && dist <= r {
				out = append(out, CorrPair{
					A: a, B: b, TimeA: t, TimeB: t,
					Dist: dist, Correlation: stats.CorrelationFromZDist(dist),
				})
			}
		}
	}
	sortPairs(out)
	return out
}

type pairsByID []CorrPair

func (p pairsByID) Len() int      { return len(p) }
func (p pairsByID) Swap(i, j int) { p[i], p[j] = p[j], p[i] }
func (p pairsByID) Less(i, j int) bool {
	if p[i].A != p[j].A {
		return p[i].A < p[j].A
	}
	if p[i].B != p[j].B {
		return p[i].B < p[j].B
	}
	// Lagged screens report one pair per probed feature time, so (A, B)
	// alone is not a total order; breaking ties by TimeB keeps the output
	// canonical — any merge of partial screens (parallel workers, shards,
	// cluster scatter-gather) sorts to the same sequence.
	return p[i].TimeB < p[j].TimeB
}

func sortPairs(ps []CorrPair) { sort.Sort(pairsByID(ps)) }
