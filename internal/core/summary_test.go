package core

import (
	"math"
	"math/rand"
	"testing"

	"stardust/internal/gen"
)

// newSummary is a test helper that fails the test on config errors.
func newSummary(t *testing.T, cfg Config, streams int) *Summary {
	t.Helper()
	s, err := NewSummary(cfg, streams)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSummaryValidation(t *testing.T) {
	if _, err := NewSummary(Config{W: 0, Levels: 1}, 1); err == nil {
		t.Fatal("bad config should fail")
	}
	if _, err := NewSummary(Config{W: 4, Levels: 1}, 0); err == nil {
		t.Fatal("zero streams should fail")
	}
}

func TestNowAndHistory(t *testing.T) {
	s := newSummary(t, Config{W: 4, Levels: 2, Transform: TransformSum}, 2)
	if s.Now(0) != -1 {
		t.Fatal("fresh stream should be at time -1")
	}
	s.Append(0, 1)
	s.Append(0, 2)
	if s.Now(0) != 1 || s.Now(1) != -1 {
		t.Fatalf("times = %d, %d", s.Now(0), s.Now(1))
	}
	if got, _ := s.History(0).At(1); got != 2 {
		t.Fatalf("history value = %g", got)
	}
}

func TestAppendAll(t *testing.T) {
	s := newSummary(t, Config{W: 4, Levels: 1, Transform: TransformSum}, 3)
	s.AppendAll([]float64{1, 2, 3})
	for i := 0; i < 3; i++ {
		if s.Now(i) != 0 {
			t.Fatalf("stream %d time = %d", i, s.Now(i))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-length AppendAll should panic")
		}
	}()
	s.AppendAll([]float64{1})
}

// TestOnlineExactFeatures: with capacity 1 the merge-based online algorithm
// must produce exactly the same features as direct computation, at every
// level and time, for every aggregate transform (Lemma 4.1).
func TestOnlineExactFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	data := gen.RandomWalk(rng, 400)
	for _, tr := range []Transform{TransformSum, TransformMax, TransformMin, TransformSpread} {
		s := newSummary(t, Config{W: 5, Levels: 4, Transform: tr, HistoryN: 400}, 1)
		for i, v := range data {
			s.Append(0, v)
			ti := int64(i)
			for j := 0; j < 4; j++ {
				wj := int64(s.cfg.LevelWindow(j))
				if ti < wj-1 {
					continue
				}
				box, ok := s.FeatureBoxAt(0, j, ti)
				if !ok {
					t.Fatalf("%v: missing level-%d feature at %d", tr, j, ti)
				}
				exact, err := s.ExactFeature(0, j, ti)
				if err != nil {
					t.Fatal(err)
				}
				for d, want := range exact {
					if math.Abs(box.Min[d]-want) > 1e-6 || math.Abs(box.Max[d]-want) > 1e-6 {
						t.Fatalf("%v level %d t=%d dim %d: box [%g, %g], exact %g",
							tr, j, ti, d, box.Min[d], box.Max[d], want)
					}
				}
			}
		}
	}
}

// TestOnlineExactDWT: the same exactness for merged DWT features, with and
// without unit normalization (the √2 rescaling path).
func TestOnlineExactDWT(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	data := make([]float64, 300)
	for i := range data {
		data[i] = rng.Float64() * 50
	}
	for _, norm := range []Normalization{NormNone, NormUnit} {
		cfg := Config{
			W: 8, Levels: 4, Transform: TransformDWT, F: 4,
			Normalization: norm, Rmax: 50, HistoryN: 300,
		}
		s := newSummary(t, cfg, 1)
		for i, v := range data {
			s.Append(0, v)
			ti := int64(i)
			for j := 0; j < 4; j++ {
				wj := int64(s.cfg.LevelWindow(j))
				if ti < wj-1 {
					continue
				}
				box, ok := s.FeatureBoxAt(0, j, ti)
				if !ok {
					t.Fatalf("norm=%v: missing level-%d feature at %d", norm, j, ti)
				}
				exact, err := s.ExactFeature(0, j, ti)
				if err != nil {
					t.Fatal(err)
				}
				for d, want := range exact {
					if math.Abs(box.Min[d]-want) > 1e-6 || math.Abs(box.Max[d]-want) > 1e-6 {
						t.Fatalf("norm=%v level %d t=%d dim %d: box [%g, %g], exact %g",
							norm, j, ti, d, box.Min[d], box.Max[d], want)
					}
				}
			}
		}
	}
}

// TestBoxedFeaturesBoundExact: with capacity c > 1, every level box must
// still CONTAIN the exact feature of each window it covers (Lemma 4.2).
func TestBoxedFeaturesBoundExact(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	data := gen.RandomWalk(rng, 500)
	for _, tr := range []Transform{TransformSum, TransformSpread, TransformDWT} {
		cfg := Config{W: 8, Levels: 4, Transform: tr, BoxCapacity: 7, F: 4, HistoryN: 500}
		s := newSummary(t, cfg, 1)
		for i, v := range data {
			s.Append(0, v)
			ti := int64(i)
			for j := 0; j < 4; j++ {
				wj := int64(s.cfg.LevelWindow(j))
				if ti < wj-1 {
					continue
				}
				box, ok := s.FeatureBoxAt(0, j, ti)
				if !ok {
					t.Fatalf("%v: missing level-%d box at %d", tr, j, ti)
				}
				exact, err := s.ExactFeature(0, j, ti)
				if err != nil {
					t.Fatal(err)
				}
				for d, want := range exact {
					if want < box.Min[d]-1e-6 || want > box.Max[d]+1e-6 {
						t.Fatalf("%v level %d t=%d dim %d: exact %g outside box [%g, %g]",
							tr, j, ti, d, want, box.Min[d], box.Max[d])
					}
				}
			}
		}
	}
}

// TestBatchSchedule: with the batch rate, features appear only at times
// t ≡ −1 (mod W) and are exact.
func TestBatchSchedule(t *testing.T) {
	cfg := Config{
		W: 8, Levels: 3, Transform: TransformDWT, F: 2,
		Rate: RateBatch(8), Direct: true, Normalization: NormZ, HistoryN: 200,
	}
	s := newSummary(t, cfg, 1)
	rng := rand.New(rand.NewSource(84))
	for i := 0; i < 200; i++ {
		s.Append(0, rng.Float64())
		ti := int64(i)
		_, ok := s.FeatureBoxAt(0, 0, ti)
		wantOK := (ti+1)%8 == 0 && ti >= 7
		if ok != wantOK {
			t.Fatalf("t=%d: level-0 feature present=%v, want %v", ti, ok, wantOK)
		}
	}
	// Level 2 (window 32) features exist at t ≡ −1 (mod 8), t ≥ 31.
	if _, ok := s.FeatureBoxAt(0, 2, 39); !ok {
		t.Fatal("level-2 feature at t=39 missing")
	}
	if _, ok := s.FeatureBoxAt(0, 2, 38); ok {
		t.Fatal("level-2 feature at t=38 should not exist")
	}
}

// TestSWATSchedule: T_j = 2^j means level j fires every 2^j steps.
func TestSWATSchedule(t *testing.T) {
	cfg := Config{W: 4, Levels: 3, Transform: TransformSum, Rate: RateSWAT, HistoryN: 64}
	s := newSummary(t, cfg, 1)
	for i := 0; i < 64; i++ {
		s.Append(0, 1)
	}
	// Level 1 (T=2): features at odd times ≥ 7.
	if _, ok := s.FeatureBoxAt(0, 1, 61); !ok {
		t.Fatal("level-1 feature at odd time missing")
	}
	if _, ok := s.FeatureBoxAt(0, 1, 62); ok {
		t.Fatal("level-1 feature at even time should not exist")
	}
	// Level 2 (T=4): features at t ≡ 3 (mod 4).
	if _, ok := s.FeatureBoxAt(0, 2, 59); !ok {
		t.Fatal("level-2 feature missing")
	}
	if _, ok := s.FeatureBoxAt(0, 2, 60); ok {
		t.Fatal("level-2 feature off schedule")
	}
}

// TestSpaceTheorem43: the number of retained boxes per level matches the
// Θ(history/(c·T)) bound — eviction keeps space proportional.
func TestSpaceTheorem43(t *testing.T) {
	const history = 256
	cfg := Config{W: 4, Levels: 3, Transform: TransformSum, BoxCapacity: 8, HistoryN: history}
	s := newSummary(t, cfg, 1)
	for i := 0; i < 5000; i++ {
		s.Append(0, 1)
	}
	for j := 0; j < 3; j++ {
		nboxes := len(s.streams[0].levels[j].boxes)
		// With T=1, c=8: about history/8 = 32 boxes (±2 for partial/edge).
		want := history / 8
		if nboxes < want-2 || nboxes > want+2 {
			t.Fatalf("level %d: %d boxes, want ≈ %d", j, nboxes, want)
		}
	}
}

// TestIndexEviction: index size stays bounded as the stream flows.
func TestIndexEviction(t *testing.T) {
	cfg := Config{
		W: 4, Levels: 2, Transform: TransformDWT, F: 2, Normalization: NormZ,
		Rate: RateBatch(4), HistoryN: 64,
	}
	s := newSummary(t, cfg, 2)
	var sizes []int
	for i := 0; i < 2000; i++ {
		s.Append(0, float64(i%13))
		s.Append(1, float64(i%7))
		if i%100 == 99 {
			sizes = append(sizes, s.Tree(0).Len())
		}
	}
	// Steady state: per stream ≈ 64/4 = 16 sealed boxes (rate 4, c = 1),
	// 2 streams ≈ 32.
	last := sizes[len(sizes)-1]
	if last < 20 || last > 40 {
		t.Fatalf("steady-state index size = %d, want ≈ 32", last)
	}
	// No unbounded growth across checkpoints.
	for i := 10; i < len(sizes); i++ {
		if sizes[i] > sizes[9]+8 {
			t.Fatalf("index grew: %v", sizes)
		}
	}
	if err := s.Tree(0).CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCurrentFeature returns the latest box.
func TestCurrentFeature(t *testing.T) {
	s := newSummary(t, Config{W: 4, Levels: 1, Transform: TransformSum}, 1)
	if _, _, _, ok := s.CurrentFeature(0, 0); ok {
		t.Fatal("no feature expected yet")
	}
	for i := 1; i <= 4; i++ {
		s.Append(0, float64(i))
	}
	box, t1, t2, ok := s.CurrentFeature(0, 0)
	if !ok || t1 != 3 || t2 != 3 {
		t.Fatalf("feature times = %d..%d, ok=%v", t1, t2, ok)
	}
	if box.Min[0] != 10 { // 1+2+3+4
		t.Fatalf("sum feature = %g", box.Min[0])
	}
}

func TestStreamOutOfRangePanics(t *testing.T) {
	s := newSummary(t, Config{W: 4, Levels: 1, Transform: TransformSum}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range stream should panic")
		}
	}()
	s.Append(5, 1)
}

// TestMultiStreamIsolation: features of one stream are not affected by
// another's data.
func TestMultiStreamIsolation(t *testing.T) {
	s := newSummary(t, Config{W: 4, Levels: 2, Transform: TransformSum, HistoryN: 64}, 2)
	solo := newSummary(t, Config{W: 4, Levels: 2, Transform: TransformSum, HistoryN: 64}, 1)
	rng := rand.New(rand.NewSource(85))
	for i := 0; i < 100; i++ {
		v := rng.Float64()
		s.Append(0, v)
		s.Append(1, rng.Float64()*100)
		solo.Append(0, v)
	}
	b1, _ := s.FeatureBoxAt(0, 1, 99)
	b2, _ := solo.FeatureBoxAt(0, 1, 99)
	if b1.Min[0] != b2.Min[0] {
		t.Fatalf("cross-stream interference: %g vs %g", b1.Min[0], b2.Min[0])
	}
}

func TestAppendRejectsNonFinite(t *testing.T) {
	s := newSummary(t, Config{W: 4, Levels: 1, Transform: TransformSum}, 1)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Append(%v) should panic", v)
				}
			}()
			s.Append(0, v)
		}()
	}
	// The stream must remain usable after rejected appends.
	s.Append(0, 1)
	if s.Now(0) != 0 {
		t.Fatal("stream corrupted by rejected appends")
	}
}

func TestAddStreamDynamic(t *testing.T) {
	s := newSummary(t, Config{W: 4, Levels: 2, Transform: TransformSum, HistoryN: 64}, 1)
	for i := 0; i < 20; i++ {
		s.Append(0, 1)
	}
	id := s.AddStream()
	if id != 1 || s.NumStreams() != 2 {
		t.Fatalf("new stream id = %d, count = %d", id, s.NumStreams())
	}
	if s.Now(id) != -1 {
		t.Fatal("new stream should start empty")
	}
	for i := 0; i < 20; i++ {
		s.Append(id, 2)
	}
	bound, err := s.AggregateBound(id, 12)
	if err != nil {
		t.Fatal(err)
	}
	if bound.Lo != 24 || bound.Hi != 24 {
		t.Fatalf("new stream bound = %v", bound)
	}
	// The earlier stream is unaffected.
	b0, err := s.AggregateBound(0, 12)
	if err != nil || b0.Lo != 12 {
		t.Fatalf("stream 0 bound = %v, %v", b0, err)
	}
}
