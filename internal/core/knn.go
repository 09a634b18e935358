package core

import "fmt"

// NearestPatterns returns the k stream subsequences most similar to the
// query under the configured normalization — the nearest-neighbor
// companion to the range-based pattern queries, built on the level index's
// best-first traversal (Roussopoulos et al.). It runs against the largest
// usable batch level: candidate features are drawn from the index in
// approximate distance order (oversampled, since feature distance only
// lower-bounds the true distance), expanded to alignments, verified
// exactly on raw history, and the k best verified matches returned in
// increasing distance order.
func (s *Summary) NearestPatterns(q []float64, k int) ([]Match, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: non-positive k %d", k)
	}
	j, err := s.MaxBatchLevel(len(q))
	if err != nil {
		return nil, err
	}
	w := s.cfg.LevelWindow(j)

	// Query feature at the level's window size: use the first w values of
	// the query as the probe (the alignment expansion covers the rest).
	probe := s.evalDirect(q[:w]).Center()
	// Oversample the index: feature distances under-estimate true
	// distances and each feature expands to up to W alignments.
	neighbors := s.trees[j].NearestNeighbors(probe, 4*k+16)

	// Collect stage (serial): expand neighbors to deduplicated candidate
	// alignments in best-first order.
	seen := make(map[Match]bool)
	var keys []Match
	qlen := int64(len(q))
	for _, nb := range neighbors {
		ref := nb.Value
		st := s.stream(ref.Stream)
		tj := int64(s.cfg.Rate(j))
		for tau := ref.T1; tau <= ref.T2; tau += tj {
			for i := 0; i < s.cfg.W; i++ {
				for kk := 0; i+(kk+1)*w <= len(q); kk++ {
					end := tau + qlen - int64(w) - int64(i) - int64(kk*w)
					if end > st.hist.Now() || end < qlen-1 {
						continue
					}
					key := Match{Stream: ref.Stream, End: end}
					if seen[key] {
						continue
					}
					seen[key] = true
					keys = append(keys, key)
				}
			}
		}
	}

	// Process stage (parallel): exact verification on raw history, results
	// in index-addressed slots so the merge preserves collection order —
	// the sort below then sees the same input sequence as a serial run.
	type verdict struct {
		ok   bool
		dist float64
	}
	verdicts := make([]verdict, len(keys))
	s.forEach(len(keys), func(i int) {
		dist, ok := s.verifyMatch(keys[i].Stream, keys[i].End, q)
		verdicts[i] = verdict{ok: ok, dist: dist}
	})
	var verified []Match
	for i, key := range keys {
		if verdicts[i].ok {
			verified = append(verified, Match{Stream: key.Stream, End: key.End, Dist: verdicts[i].dist})
		}
	}
	SortNearest(verified)
	if len(verified) > k {
		verified = verified[:k]
	}
	return verified, nil
}
