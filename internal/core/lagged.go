package core

import (
	"fmt"

	"stardust/internal/mbr"
)

// CorrelationScreenLagged extends the synchronous screen of Section 5.3 to
// lagged correlations, as StatStream's "lag time" does: for every stream's
// CURRENT level feature (ending at its latest feature time t), the range
// query also admits features of other streams ending up to maxLag time
// steps earlier. A reported pair (A, B, TimeA, TimeB) means "A's window
// ending at TimeA resembles B's window ending at TimeB" — TimeA − TimeB is
// the lag. Pairs are screened only; use VerifyPairs for exact confirmation.
//
// Historical features are only available while they remain indexed, so the
// summary must be configured with IndexHorizon ≥ maxLag plus one update
// period.
func (s *Summary) CorrelationScreenLagged(level int, r float64, maxLag int) ([]CorrPair, error) {
	if err := s.checkCorrelationLevel(level); err != nil {
		return nil, err
	}
	if maxLag < 0 {
		return nil, fmt.Errorf("core: negative lag %d", maxLag)
	}
	tj := int64(s.cfg.Rate(level))

	// Unsealed trailing boxes, collected once (see CorrelationScreen).
	unsealed := s.unindexedTails(level)

	// Per-stream probes are independent and shard across the worker pool.
	// Every reported pair carries A = probing stream id, so the dedup map
	// partitions exactly by probe: a per-stream map sees the same keys the
	// serial loop's shared map did.
	perStream := make([][]CorrPair, len(s.streams))
	s.forEach(len(s.streams), func(i int) {
		st := s.streams[i]
		box, _, t2, ok := st.levels[level].latest()
		if !ok {
			return
		}
		center := s.featureView(box, level).Center()
		oldest := t2 - int64(maxLag)
		seen := make(map[CorrPair]bool)
		consider := func(ref BoxRef) {
			if ref.Stream == st.id || ref.T2 < oldest || ref.T1 > t2 {
				return
			}
			lo := ref.T1
			if lo < oldest {
				// Advance to the first feature time inside the lag window,
				// preserving the level's schedule alignment.
				steps := (oldest - ref.T1 + tj - 1) / tj
				lo = ref.T1 + steps*tj
			}
			for tau := lo; tau <= ref.T2 && tau <= t2; tau += tj {
				p := CorrPair{A: st.id, B: ref.Stream, TimeA: t2, TimeB: tau}
				if seen[p] {
					continue
				}
				seen[p] = true
				perStream[i] = append(perStream[i], p)
			}
		}
		s.trees[level].SearchSphere(center, r, func(_ mbr.MBR, ref BoxRef) bool {
			consider(ref)
			return true
		})
		for k := range unsealed {
			p := &unsealed[k]
			if p.ref.Stream == st.id || p.box.MinDist2(center) > r*r {
				continue
			}
			consider(p.ref)
		}
	})
	var out []CorrPair
	for _, ps := range perStream {
		out = append(out, ps...)
	}
	sortPairs(out)
	return out, nil
}
