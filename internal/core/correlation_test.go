package core

import (
	"math/rand"
	"testing"

	"stardust/internal/gen"
	"stardust/internal/stats"
)

func corrSummary(t *testing.T, streams, w, levels, f int) *Summary {
	t.Helper()
	return newSummary(t, Config{
		W: w, Levels: levels, Transform: TransformDWT, F: f,
		Normalization: NormZ, Rate: RateBatch(w), Direct: true,
		HistoryN: w << uint(levels), // keep raw windows for verification
	}, streams)
}

// TestCorrelationFindsPlantedPair: two jittered copies of one walk among
// independent walks must be reported; independent pairs must not (at a
// tight radius).
func TestCorrelationFindsPlantedPair(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	const M, n = 6, 512
	s := corrSummary(t, M, 16, 4, 4)
	base := gen.RandomWalk(rng, n)
	data := make([][]float64, M)
	data[0] = base
	data[1] = make([]float64, n)
	for i := range base {
		data[1][i] = base[i] + 0.02*(rng.Float64()-0.5)
	}
	for st := 2; st < M; st++ {
		data[st] = gen.RandomWalk(rng, n)
	}
	for i := 0; i < n; i++ {
		for st := 0; st < M; st++ {
			s.Append(st, data[st][i])
		}
	}
	res, err := s.CorrelationQuery(3, 0.3) // level 3: window 128
	if err != nil {
		t.Fatal(err)
	}
	foundPlanted := false
	for _, p := range res.Pairs {
		if p.A == 0 && p.B == 1 {
			foundPlanted = true
			if p.Correlation < 0.95 {
				t.Fatalf("planted pair correlation = %g", p.Correlation)
			}
		}
	}
	if !foundPlanted {
		t.Fatalf("planted pair not reported; pairs = %v", res.Pairs)
	}
}

// TestCorrelationProbeCompletesPairs: fed stream by stream, each stream's
// probe at its fresh feature finds exactly the verified pairs it completes
// with the streams already there, so the probes together give the round's
// verified pairs, each once; a feature already probed is not probed again.
func TestCorrelationProbeCompletesPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	const M, n, level, r = 12, 256, 2, 0.4
	s := corrSummary(t, M, 16, 3, 4)
	data := gen.CorrelatedWalks(rng, M, n, 4, 0.2)
	rounds, pairs := 0, 0
	for lo := 0; lo < n; lo += 16 {
		var probed []CorrPair
		for st := 0; st < M; st++ {
			s.AppendBatch(st, data[st][lo:lo+16])
			ps, err := s.CorrelationProbe(st, level, r, int64(lo-1))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range ps {
				if p.B != st {
					t.Fatalf("stream %d's probe reported %+v, which it does not complete", st, p)
				}
			}
			probed = append(probed, ps...)
			if again, _ := s.CorrelationProbe(st, level, r, int64(lo+15)); len(again) != 0 {
				t.Fatalf("stream %d re-probed an already probed feature: %v", st, again)
			}
		}
		res, err := s.CorrelationQuery(level, r)
		if err != nil {
			t.Fatal(err)
		}
		sortPairs(probed)
		if len(probed) != len(res.Pairs) {
			t.Fatalf("block at %d: probes found %v, round %v", lo, probed, res.Pairs)
		}
		for i := range probed {
			if probed[i] != res.Pairs[i] {
				t.Fatalf("block at %d: probes found %v, round %v", lo, probed, res.Pairs)
			}
		}
		rounds++
		pairs += len(probed)
	}
	if pairs == 0 {
		t.Fatalf("no correlated pairs in %d rounds; the test exercises nothing", rounds)
	}
}

// TestCorrelationMatchesScan: verified pairs must equal the linear-scan
// ground truth at the feature time, and candidates must be a superset
// (screening soundness: the f-coefficient DWT feature distance
// lower-bounds the z-norm distance).
func TestCorrelationMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	const M, n = 16, 512
	s := corrSummary(t, M, 16, 4, 4)
	data := gen.CorrelatedWalks(rng, M, n, 4, 0.4)
	for i := 0; i < n; i++ {
		for st := 0; st < M; st++ {
			s.Append(st, data[st][i])
		}
	}
	level := 3
	_, _, t2, ok := s.CurrentFeature(0, level)
	if !ok {
		t.Fatal("no feature computed")
	}
	for _, r := range []float64{0.1, 0.4, 0.8} {
		res, err := s.CorrelationQuery(level, r)
		if err != nil {
			t.Fatal(err)
		}
		scan := s.ScanCorrelatedPairs(level, t2, r)
		want := make(map[[2]int]bool)
		for _, p := range scan {
			want[[2]int{p.A, p.B}] = true
		}
		cand := make(map[[2]int]bool)
		for _, p := range res.Candidates {
			cand[[2]int{p.A, p.B}] = true
		}
		got := make(map[[2]int]bool)
		for _, p := range res.Pairs {
			got[[2]int{p.A, p.B}] = true
		}
		for k := range want {
			if !cand[k] {
				t.Fatalf("r=%g: true pair %v not among candidates", r, k)
			}
			if !got[k] {
				t.Fatalf("r=%g: true pair %v not verified", r, k)
			}
		}
		for k := range got {
			if !want[k] {
				t.Fatalf("r=%g: spurious pair %v", r, k)
			}
		}
	}
}

// TestCorrelationPrecisionImprovesWithF: more coefficients tighten the
// screening, reducing (or keeping) the candidate count for the same truth —
// the paper's Figure 6(a) effect.
func TestCorrelationPrecisionImprovesWithF(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	const M, n = 24, 512
	data := gen.CorrelatedWalks(rng, M, n, 4, 0.5)
	counts := make(map[int]int)
	for _, f := range []int{2, 8} {
		s := corrSummary(t, M, 16, 4, f)
		for i := 0; i < n; i++ {
			for st := 0; st < M; st++ {
				s.Append(st, data[st][i])
			}
		}
		res, err := s.CorrelationQuery(3, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		counts[f] = len(res.Candidates)
	}
	if counts[8] > counts[2] {
		t.Fatalf("f=8 should screen at least as tightly as f=2: %v", counts)
	}
}

func TestCorrelationQueryErrors(t *testing.T) {
	s := newSummary(t, Config{W: 4, Levels: 2, Transform: TransformSum}, 2)
	if _, err := s.CorrelationQuery(0, 0.1); err == nil {
		t.Fatal("correlation query on aggregate summary should fail")
	}
	d := corrSummary(t, 2, 8, 2, 2)
	if _, err := d.CorrelationQuery(5, 0.1); err == nil {
		t.Fatal("out-of-range level should fail")
	}
	// No data yet: no candidates, no error.
	res, err := d.CorrelationQuery(0, 0.1)
	if err != nil || len(res.Candidates) != 0 {
		t.Fatalf("empty summary should return empty result, got %v, %v", res, err)
	}
}

func TestCorrelationResultPrecision(t *testing.T) {
	var r CorrelationResult
	if r.Precision() != 1 {
		t.Fatal("empty precision should be 1")
	}
	r.Candidates = []CorrPair{{}, {}}
	r.Pairs = []CorrPair{{}}
	if r.Precision() != 0.5 {
		t.Fatalf("precision = %g", r.Precision())
	}
}

// TestCorrelationReportedValueMatchesPearson: the Correlation field must
// agree with the directly computed Pearson coefficient on raw windows.
func TestCorrelationReportedValueMatchesPearson(t *testing.T) {
	rng := rand.New(rand.NewSource(114))
	const M, n = 4, 256
	s := corrSummary(t, M, 16, 3, 4)
	data := gen.CorrelatedWalks(rng, M, n, 2, 0.3)
	for i := 0; i < n; i++ {
		for st := 0; st < M; st++ {
			s.Append(st, data[st][i])
		}
	}
	level := 2
	w := s.Config().LevelWindow(level)
	res, err := s.CorrelationQuery(level, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 {
		t.Fatal("expected at least one pair at r=1")
	}
	for _, p := range res.Pairs {
		wa := data[p.A][n-w : n]
		wb := data[p.B][n-w : n]
		direct := stats.Correlation(wa, wb)
		if d := p.Correlation - direct; d > 1e-9 || d < -1e-9 {
			t.Fatalf("pair (%d,%d): reported %g vs direct %g", p.A, p.B, p.Correlation, direct)
		}
	}
}
