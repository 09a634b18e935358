package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"stardust/internal/gen"
)

// TestPropertyAggregateBoundAlwaysSound throws random configurations, data
// and query windows at the summary and demands the central invariant: the
// composed interval contains the exact aggregate.
func TestPropertyAggregateBoundAlwaysSound(t *testing.T) {
	transforms := []Transform{TransformSum, TransformMax, TransformMin, TransformSpread}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			W:           1 + rng.Intn(12),
			Levels:      2 + rng.Intn(4),
			Transform:   transforms[rng.Intn(len(transforms))],
			BoxCapacity: 1 + rng.Intn(20),
		}
		cfg.HistoryN = 4 * (cfg.W << uint(cfg.Levels-1))
		s, err := NewSummary(cfg, 1)
		if err != nil {
			return false
		}
		n := cfg.HistoryN + rng.Intn(200)
		data := gen.RandomWalk(rng, n)
		for i, v := range data {
			s.Append(0, v)
			if i < cfg.W || rng.Intn(11) != 0 {
				continue
			}
			// Random decomposable window that fits the observed prefix.
			maxB := (i + 1) / cfg.W
			if limit := 1<<uint(cfg.Levels) - 1; maxB > limit {
				maxB = limit
			}
			if maxB < 1 {
				continue
			}
			w := cfg.W * (1 + rng.Intn(maxB))
			bound, err := s.AggregateBound(0, w)
			if err != nil {
				return false
			}
			exact, err := s.ExactAggregate(0, w)
			if err != nil {
				return false
			}
			if exact < bound.Lo-1e-6 || exact > bound.Hi+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPatternCandidatesCoverScan throws random DWT configurations
// and queries at both pattern algorithms and demands no false dismissals.
func TestPropertyPatternCandidatesCoverScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ws := []int{4, 8, 16}
		w := ws[rng.Intn(len(ws))]
		cfg := Config{
			W: w, Levels: 3 + rng.Intn(2), Transform: TransformDWT,
			F:             []int{2, 4}[rng.Intn(2)],
			Normalization: NormUnit, Rmax: 120,
			BoxCapacity: 1 + rng.Intn(8),
			HistoryN:    2048,
		}
		s, err := NewSummary(cfg, 2)
		if err != nil {
			return false
		}
		data := gen.RandomWalks(rng, 2, 300+rng.Intn(200))
		for i := 0; i < len(data[0]); i++ {
			s.Append(0, data[0][i])
			s.Append(1, data[1][i])
		}
		// Query of decomposable length.
		b := 1 + rng.Intn(1<<uint(cfg.Levels)-1)
		q := gen.RandomWalk(rng, b*w)
		r := 0.01 + rng.Float64()*0.1
		res, err := s.PatternQueryOnline(q, r)
		if err != nil {
			return false
		}
		want := matchKeySet(s.ScanPatternMatches(q, r))
		got := matchKeySet(res.Matches)
		for m := range want {
			if !got[m] {
				return false
			}
		}
		for m := range got {
			if !want[m] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func matchKeySet(ms []Match) map[Match]bool {
	out := make(map[Match]bool, len(ms))
	for _, m := range ms {
		out[Match{Stream: m.Stream, End: m.End}] = true
	}
	return out
}

// TestIndexHorizonKeepsIndexSmall: with IndexHorizon set to one update
// period, the index holds at most one entry per stream per indexed level
// while thread history is retained in full.
func TestIndexHorizonKeepsIndexSmall(t *testing.T) {
	cfg := Config{
		W: 16, Levels: 3, Transform: TransformDWT, F: 2,
		Normalization: NormZ, Rate: RateBatch(16),
		HistoryN: 128, IndexHorizon: 16,
	}
	s := newSummary(t, cfg, 4)
	rng := rand.New(rand.NewSource(241))
	for i := 0; i < 600; i++ {
		for st := 0; st < 4; st++ {
			s.Append(st, rng.Float64())
		}
	}
	for j := 0; j < 3; j++ {
		if got := s.Tree(j).Len(); got > 4 {
			t.Fatalf("level %d index holds %d entries, want ≤ 4", j, got)
		}
		if err := s.Tree(j).CheckInvariants(); err != nil {
			t.Fatalf("level %d: %v", j, err)
		}
	}
	// Thread history spans the full HistoryN horizon regardless.
	st := s.Stats()
	for j, l := range st.Levels {
		// With T=16, c=1 and HistoryN=128: 8 features per stream → 32 boxes.
		if l.ThreadBoxes < 16 {
			t.Fatalf("level %d thread boxes = %d, thread history should be retained", j, l.ThreadBoxes)
		}
	}
	// Correlation screening still works on the current features.
	if _, err := s.CorrelationScreen(2, 0.5); err != nil {
		t.Fatal(err)
	}
}

// TestIndexHorizonValidation: IndexHorizon must not exceed HistoryN.
func TestIndexHorizonValidation(t *testing.T) {
	_, err := Config{
		W: 4, Levels: 2, Transform: TransformSum,
		HistoryN: 32, IndexHorizon: 64,
	}.Validate()
	if err == nil {
		t.Fatal("IndexHorizon > HistoryN should fail validation")
	}
}

// TestEvictionNeverBreaksQueries runs long enough for multiple full
// turnovers of history and checks queries stay consistent throughout: the
// aggregate bound on a SUM summary, and the level indexes' invariants on a
// DWT summary fed the same values (only DWT summaries keep an index).
func TestEvictionNeverBreaksQueries(t *testing.T) {
	cfg := Config{
		W: 4, Levels: 3, Transform: TransformSum, BoxCapacity: 3, HistoryN: 64,
	}
	s := newSummary(t, cfg, 1)
	idx := newSummary(t, Config{
		W: 4, Levels: 3, Transform: TransformDWT, F: 2,
		Normalization: NormZ, Rate: RateBatch(4), HistoryN: 64,
	}, 1)
	rng := rand.New(rand.NewSource(242))
	for i := 0; i < 5000; i++ {
		v := rng.Float64() * 10
		s.Append(0, v)
		idx.Append(0, v)
		if i > 64 && i%13 == 0 {
			bound, err := s.AggregateBound(0, 28)
			if err != nil {
				t.Fatalf("t=%d: %v", i, err)
			}
			exact, err := s.ExactAggregate(0, 28)
			if err != nil {
				t.Fatal(err)
			}
			if !bound.Contains(exact) {
				t.Fatalf("t=%d: exact %g outside [%g, %g]", i, exact, bound.Lo, bound.Hi)
			}
		}
	}
	for j := 0; j < 3; j++ {
		if err := idx.Tree(j).CheckInvariants(); err != nil {
			t.Fatalf("level %d after churn: %v", j, err)
		}
		if idx.Tree(j).Len() == 0 {
			t.Fatalf("level %d index is empty after churn", j)
		}
	}
}

// TestAggregateSummaryKeepsNoIndex: every aggregate transform answers
// sound bounds through several history turnovers while no level index
// receives an entry, and Stats reports every level as unindexed.
func TestAggregateSummaryKeepsNoIndex(t *testing.T) {
	for _, tr := range []Transform{TransformSum, TransformMax, TransformMin, TransformSpread} {
		cfg := Config{
			W: 5, Levels: 4, Transform: tr, BoxCapacity: 3,
			HistoryN: 256, IndexHorizon: 64,
		}
		s := newSummary(t, cfg, 2)
		rng := rand.New(rand.NewSource(301))
		for i := 0; i < 1000; i++ {
			for st := 0; st < 2; st++ {
				s.Append(st, rng.Float64()*10)
			}
			if i > 100 && i%17 == 0 {
				bound, err := s.AggregateBound(0, 35)
				if err != nil {
					t.Fatal(err)
				}
				exact, _ := s.ExactAggregate(0, 35)
				if !bound.Contains(exact) {
					t.Fatalf("%v t=%d: exact %g outside %v", tr, i, exact, bound)
				}
			}
		}
		for j, l := range s.Stats().Levels {
			if s.Tree(j).Len() != 0 || l.IndexEntries != 0 || l.Indexed {
				t.Fatalf("%v level %d: %d index entries, indexed %v", tr, j, s.Tree(j).Len(), l.Indexed)
			}
			if l.ThreadBoxes == 0 {
				t.Fatalf("%v level %d: empty feature threads", tr, j)
			}
		}
		for _, st := range s.streams {
			for j, sl := range st.levels {
				if sl.idxFront != 0 {
					t.Fatalf("%v level %d: index front %d", tr, j, sl.idxFront)
				}
				for _, lb := range sl.boxes {
					if lb.indexed {
						t.Fatalf("%v level %d: box %d..%d marked indexed", tr, j, lb.t1, lb.t2)
					}
				}
			}
		}
	}
}

// TestUnindexedLevelSynchronousCorrelation: current-window correlation
// screening at a level left out of IndexLevels matches the indexed
// screen (it falls back to pairwise over the latest boxes).
func TestUnindexedLevelSynchronousCorrelation(t *testing.T) {
	cfg := Config{
		W: 16, Levels: 3, Transform: TransformDWT, F: 4,
		Normalization: NormZ, Rate: RateBatch(16),
		HistoryN: 128, IndexLevels: []int{0},
	}
	s := newSummary(t, cfg, 6)
	if s.Stats().Levels[2].Indexed {
		t.Fatal("level 2 should not be indexed")
	}
	indexed := newSummary(t, Config{
		W: 16, Levels: 3, Transform: TransformDWT, F: 4,
		Normalization: NormZ, Rate: RateBatch(16), HistoryN: 128,
	}, 6)
	rng := rand.New(rand.NewSource(302))
	data := gen.CorrelatedWalks(rng, 6, 256, 2, 0.2)
	for i := 0; i < 256; i++ {
		for st := 0; st < 6; st++ {
			s.Append(st, data[st][i])
			indexed.Append(st, data[st][i])
		}
	}
	if s.Tree(2).Len() != 0 || indexed.Tree(2).Len() == 0 {
		t.Fatalf("level 2 index sizes %d (unindexed) and %d (indexed)", s.Tree(2).Len(), indexed.Tree(2).Len())
	}
	a, err := s.CorrelationScreen(2, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := indexed.CorrelationScreen(2, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("screened %d pairs without index vs %d with", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pair %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
