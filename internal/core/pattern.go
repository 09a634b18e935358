package core

import (
	"fmt"
	"math"
	"sort"

	"stardust/internal/mbr"
	"stardust/internal/stats"
)

// Match identifies a stream subsequence: the window of query length ending
// at End on Stream. Dist is the verified distance for verified matches (and
// the candidate's best-case lower bound before verification).
type Match struct {
	Stream int
	End    int64
	Dist   float64
}

// PatternResult is the outcome of a pattern query. Candidates are the
// records retrieved by the index filter before verification — alignment
// candidates for the online algorithm (Algorithm 3), feature candidates
// for the batch algorithm (Algorithm 4), matching the paper's accounting.
// Matches are the verified stream subsequences within the radius. Relevant
// counts the candidates whose verification succeeded (the precision
// numerator).
type PatternResult struct {
	Candidates []Match
	Matches    []Match
	Relevant   int
}

// Precision returns the paper's quality metric — relevant records over
// records retrieved (1 when nothing was retrieved).
func (r PatternResult) Precision() float64 {
	if len(r.Candidates) == 0 {
		return 1
	}
	return float64(r.Relevant) / float64(len(r.Candidates))
}

// queryPiece is one sub-query segment: its level, window, offset inside the
// query and per-piece-normalized feature.
type queryPiece struct {
	level   int
	w       int
	offset  int
	feature []float64
	// weight converts a piece-space squared distance into its contribution
	// to the full-window-normalized squared distance (w_i/|Q| under unit
	// normalization, 1 otherwise).
	weight float64
}

// decomposeQuery splits the query into sub-queries per Section 5.2: one
// consecutive segment per one-bit of b = |Q|/W, ascending level, each
// normalized at its own scale and reduced to the f leading DWT
// coefficients.
func (s *Summary) decomposeQuery(q []float64) ([]queryPiece, error) {
	levels, err := s.cfg.DecomposeWindow(len(q))
	if err != nil {
		return nil, err
	}
	pieces := make([]queryPiece, 0, len(levels))
	off := 0
	for _, j := range levels {
		w := s.cfg.LevelWindow(j)
		seg := q[off : off+w]
		fb := s.evalDirect(seg)
		weight := 1.0
		if s.cfg.Normalization == NormUnit {
			weight = float64(w) / float64(len(q))
		}
		pieces = append(pieces, queryPiece{level: j, w: w, offset: off, feature: fb.Min, weight: weight})
		off += w
	}
	return pieces, nil
}

// onlineCand is one Algorithm-3 work item: the alignment implied by a
// first-sub-query feature ending at tau, with the refinement budget its
// retrieving box established. The process stage fills in the outcome.
type onlineCand struct {
	stream int
	tau    int64
	base   float64
	// Results of the refine/verify stage:
	pass     bool    // survived the hierarchical radius refinement
	end      int64   // alignment end time
	candDist float64 // best-case lower bound after refinement
	verified bool    // exact distance within r on raw history
	dist     float64 // exact distance (when verified)
}

// PatternQueryOnline answers a variable-length pattern query against an
// online-maintained summary (Algorithm 3): range query at the first
// sub-query's resolution, then hierarchical radius refinement through the
// remaining sub-queries, then exact verification on raw history. The query
// length must be a multiple of W decomposable within the summary's levels.
//
// The refinement/verification stage fans the candidate alignments across
// the worker pool; the merge replays the serial dedup in collection order,
// so results are identical to a serial run.
func (s *Summary) PatternQueryOnline(q []float64, r float64) (PatternResult, error) {
	if s.cfg.Transform != TransformDWT {
		return PatternResult{}, fmt.Errorf("core: pattern query on a %v summary", s.cfg.Transform)
	}
	pieces, err := s.decomposeQuery(q)
	if err != nil {
		return PatternResult{}, err
	}
	p1 := pieces[0]
	// The first range query radius converts the full budget r² into piece
	// space: weight·d² ≤ r² ⇒ d ≤ r/sqrt(weight).
	r1 := r / math.Sqrt(p1.weight)
	t1 := int64(s.cfg.Rate(p1.level))

	// Collect stage (serial): enumerate candidate alignments in traversal
	// order — the order the serial algorithm refined them in.
	var items []onlineCand
	s.trees[p1.level].SearchSphere(p1.feature, r1, func(box mbr.MBR, ref BoxRef) bool {
		d1 := box.MinDist(p1.feature)
		base := r*r - p1.weight*d1*d1
		if base < 0 {
			return true
		}
		for tau := ref.T1; tau <= ref.T2; tau += t1 {
			items = append(items, onlineCand{stream: ref.Stream, tau: tau, base: base})
		}
		return true
	})
	// Also consider the stream's most recent, still-unsealed box, which is
	// not yet in the index.
	for _, st := range s.streams {
		if len(st.levels[p1.level].boxes) == 0 {
			continue
		}
		lb := &st.levels[p1.level].boxes[len(st.levels[p1.level].boxes)-1]
		if lb.sealed {
			continue
		}
		d1 := s.featureView(lb.box, p1.level).MinDist(p1.feature)
		base := r*r - p1.weight*d1*d1
		if base < 0 {
			continue
		}
		for tau := lb.t1; tau <= lb.t2; tau += t1 {
			items = append(items, onlineCand{stream: st.id, tau: tau, base: base})
		}
	}

	// Process stage (parallel): refine and verify each item independently.
	s.forEach(len(items), func(i int) {
		s.refineCandidate(pieces, &items[i], q, r)
	})

	// Merge stage (serial, collection order): replay the seen-map dedup of
	// the serial loop — first passing occurrence of an alignment wins.
	var res PatternResult
	seen := make(map[Match]bool)
	for i := range items {
		it := &items[i]
		if !it.pass {
			continue
		}
		key := Match{Stream: it.stream, End: it.end}
		if seen[key] {
			continue
		}
		seen[key] = true
		res.Candidates = append(res.Candidates, Match{Stream: it.stream, End: it.end, Dist: it.candDist})
		if it.verified {
			res.Relevant++
			res.Matches = append(res.Matches, Match{Stream: it.stream, End: it.end, Dist: it.dist})
		}
	}
	sortMatches(res.Candidates)
	sortMatches(res.Matches)
	return res, nil
}

// refineCandidate applies the hierarchical radius refinement of Algorithm 3
// to the alignment implied by the first sub-query's feature ending at
// it.tau, then verifies survivors against raw history, recording the
// outcome in it. It touches only read-only summary state plus the item
// itself, so distinct items refine concurrently.
func (s *Summary) refineCandidate(pieces []queryPiece, it *onlineCand, q []float64, r float64) {
	qlen := int64(len(q))
	p1 := pieces[0]
	budget := it.base
	end := it.tau + qlen - int64(p1.offset) - int64(p1.w)
	st := s.stream(it.stream)
	if end > st.hist.Now() || end < qlen-1 {
		return
	}
	for _, p := range pieces[1:] {
		ti := end - qlen + int64(p.offset) + int64(p.w)
		box, ok := st.levels[p.level].lookup(ti)
		if ok {
			box = s.featureView(box, p.level)
		}
		if !ok {
			// Feature evicted or not yet produced; cannot refine with this
			// piece but the candidate remains sound.
			continue
		}
		d := box.MinDist(p.feature)
		budget -= p.weight * d * d
		if budget < 0 {
			return
		}
	}
	it.pass = true
	it.end = end
	it.candDist = math.Sqrt(math.Max(0, r*r-budget))
	if dist, ok := s.verifyMatch(it.stream, end, q); ok && dist <= r {
		it.verified = true
		it.dist = dist
	}
}

// verifyMatch computes the exact full-window-normalized distance between
// the query and the stream subsequence ending at end. ok is false when the
// raw values are no longer retained.
func (s *Summary) verifyMatch(stream int, end int64, q []float64) (float64, bool) {
	st := s.stream(stream)
	raw, err := st.hist.Range(end-int64(len(q))+1, end)
	if err != nil {
		return 0, false
	}
	return stats.Euclidean(s.normalize(q), s.normalize(raw)), true
}

// PatternQueryBatch answers a pattern query against a batch-maintained
// summary (Algorithm 4): select the largest usable resolution, bound all
// prefix/disjoint-window features of the query in one MBR, enlarge it by
// the multi-piece refinement radius r/√p, range query that level's index
// and verify the candidate alignments on raw history.
func (s *Summary) PatternQueryBatch(q []float64, r float64) (PatternResult, error) {
	j, err := s.MaxBatchLevel(len(q))
	if err != nil {
		return PatternResult{}, err
	}
	return s.PatternQueryBatchAt(q, r, j)
}

// MaxBatchLevel returns the largest resolution level usable by Algorithm 4
// for a query of the given length: the largest j with 2^j·W + W − 1 ≤ |Q|.
func (s *Summary) MaxBatchLevel(queryLen int) (int, error) {
	if s.cfg.Transform != TransformDWT {
		return 0, fmt.Errorf("core: pattern query on a %v summary", s.cfg.Transform)
	}
	W := s.cfg.W
	j := -1
	for lvl := 0; lvl < s.cfg.Levels; lvl++ {
		if s.cfg.LevelWindow(lvl)+W-1 <= queryLen {
			j = lvl
		}
	}
	if j < 0 {
		return 0, fmt.Errorf("core: query length %d below minimum %d", queryLen, 2*s.cfg.W-1)
	}
	return j, nil
}

// PatternQueryBatchAt runs Algorithm 4 against a chosen resolution level
// rather than the maximum usable one. Lower levels use smaller windows,
// which increases the multi-piece refinement factor p and tightens the
// per-piece radius — the adaptation Section 6.2.1 suggests for
// high-selectivity queries, at the cost of the coarser trend information
// larger windows carry.
func (s *Summary) PatternQueryBatchAt(q []float64, r float64, j int) (PatternResult, error) {
	if s.cfg.Transform != TransformDWT {
		return PatternResult{}, fmt.Errorf("core: pattern query on a %v summary", s.cfg.Transform)
	}
	maxJ, err := s.MaxBatchLevel(len(q))
	if err != nil {
		return PatternResult{}, err
	}
	if j < 0 || j > maxJ {
		return PatternResult{}, fmt.Errorf("core: level %d outside usable range [0, %d] for query length %d", j, maxJ, len(q))
	}
	W := s.cfg.W
	w := s.cfg.LevelWindow(j)

	// Query MBR over every W-phase prefix and its disjoint windows.
	qbox := mbr.New(s.dim)
	for i := 0; i < W; i++ {
		for k := 0; i+(k+1)*w <= len(q); k++ {
			seg := q[i+k*w : i+(k+1)*w]
			qbox.Extend(s.evalDirect(seg))
		}
	}
	p := (len(q) - W + 1) / w
	if p < 1 {
		p = 1
	}
	weight := 1.0
	if s.cfg.Normalization == NormUnit {
		weight = float64(w) / float64(len(q))
	}
	// Piece-space refinement radius: weight·d² ≤ r²/p ⇒ d ≤ r/sqrt(p·weight).
	rq := r / math.Sqrt(float64(p)*weight)
	query := qbox.Enlarge(rq)

	// Collect stage (serial): enumerate retrieved features in traversal
	// order, deduplicated exactly as the serial loop did (first occurrence
	// of a (stream, tau) key claims the candidate).
	tj := int64(s.cfg.Rate(j))
	type batchItem struct {
		stream   int
		tau      int64
		matches  []Match // verified alignments, in enumeration order
		relevant bool
	}
	var items []batchItem
	seen := make(map[Match]bool)
	collect := func(stream int, tau int64) {
		key := Match{Stream: stream, End: tau}
		if seen[key] {
			return
		}
		seen[key] = true
		items = append(items, batchItem{stream: stream, tau: tau})
	}
	s.trees[j].Search(query, func(box mbr.MBR, ref BoxRef) bool {
		for tau := ref.T1; tau <= ref.T2; tau += tj {
			collect(ref.Stream, tau)
		}
		return true
	})
	// Unsealed trailing boxes.
	for _, st := range s.streams {
		sl := st.levels[j]
		if len(sl.boxes) == 0 {
			continue
		}
		lb := &sl.boxes[len(sl.boxes)-1]
		if lb.sealed || !s.featureView(lb.box, j).Intersects(query) {
			continue
		}
		for tau := lb.t1; tau <= lb.t2; tau += tj {
			collect(st.id, tau)
		}
	}

	// Process stage (parallel): verify every query alignment consistent
	// with each candidate on raw history. A candidate is relevant when at
	// least one alignment matches.
	qlen := int64(len(q))
	s.forEach(len(items), func(idx int) {
		it := &items[idx]
		st := s.stream(it.stream)
		for i := 0; i < W; i++ {
			for k := 0; i+(k+1)*w <= len(q); k++ {
				end := it.tau + qlen - int64(w) - int64(i) - int64(k*w)
				if end > st.hist.Now() || end < qlen-1 {
					continue
				}
				if dist, ok := s.verifyMatch(it.stream, end, q); ok && dist <= r {
					it.relevant = true
					it.matches = append(it.matches, Match{Stream: it.stream, End: end, Dist: dist})
				}
			}
		}
	})

	// Merge stage (serial, collection order): fold per-candidate matches
	// with the cross-candidate dedup the serial loop applied.
	var res PatternResult
	matchSeen := make(map[Match]bool)
	for idx := range items {
		it := &items[idx]
		res.Candidates = append(res.Candidates, Match{Stream: it.stream, End: it.tau})
		if it.relevant {
			res.Relevant++
		}
		for _, m := range it.matches {
			key := Match{Stream: m.Stream, End: m.End}
			if matchSeen[key] {
				continue
			}
			matchSeen[key] = true
			res.Matches = append(res.Matches, m)
		}
	}
	sortMatches(res.Candidates)
	sortMatches(res.Matches)
	return res, nil
}

// ScanPatternMatches is the linear-scan ground truth: every subsequence of
// query length (at every retained alignment of every stream) whose exact
// normalized distance to the query is within r.
func (s *Summary) ScanPatternMatches(q []float64, r float64) []Match {
	var out []Match
	for _, st := range s.streams {
		out = append(out, s.MatchesEnding(st.id, q, r, 0, st.hist.Now())...)
	}
	return out
}

// MatchesEnding verifies on raw history every alignment of the stream
// whose window ends in [lo, hi], and returns those within r of the query
// in end order. Alignments whose window is not (or no longer) wholly
// retained are skipped. A standing pattern query calls it with the
// alignments completed since its previous evaluation, so each alignment
// is examined exactly once, on the arrival that completes it.
func (s *Summary) MatchesEnding(stream int, q []float64, r float64, lo, hi int64) []Match {
	st := s.stream(stream)
	qlen := int64(len(q))
	if first := st.hist.OldestTime() + qlen - 1; lo < first {
		lo = first
	}
	if now := st.hist.Now(); hi > now {
		hi = now
	}
	if lo > hi {
		return nil
	}
	nq := s.normalize(q)
	var out []Match
	for end := lo; end <= hi; end++ {
		raw, err := st.hist.Range(end-qlen+1, end)
		if err != nil {
			continue
		}
		if dist := stats.Euclidean(nq, s.normalize(raw)); dist <= r {
			out = append(out, Match{Stream: stream, End: end, Dist: dist})
		}
	}
	return out
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Stream != ms[j].Stream {
			return ms[i].Stream < ms[j].Stream
		}
		return ms[i].End < ms[j].End
	})
}
