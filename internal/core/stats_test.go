package core

import (
	"math/rand"
	"testing"
)

// TestStatsSnapshot checks the introspection snapshot against the space
// bound of Theorem 4.3: at level j with capacity c and rate T, the steady
// state retains about HistoryN/(c·T) boxes per stream. An online SUM
// summary keeps no level index; a batch z-normalized DWT summary indexes
// every level by default.
func TestStatsSnapshot(t *testing.T) {
	const (
		history = 512
		streams = 3
	)
	for _, tc := range []struct {
		cfg     Config
		rate    int
		dim     int
		indexed bool
	}{
		{Config{W: 4, Levels: 4, Transform: TransformSum, BoxCapacity: 8, HistoryN: history}, 1, 1, false},
		{Config{
			W: 4, Levels: 4, Transform: TransformDWT, F: 2, Normalization: NormZ,
			Rate: RateBatch(4), HistoryN: history,
		}, 4, 2, true},
	} {
		s := newSummary(t, tc.cfg, streams)
		capacity := s.Config().BoxCapacity
		rng := rand.New(rand.NewSource(151))
		for i := 0; i < 4000; i++ {
			for st := 0; st < streams; st++ {
				s.Append(st, rng.Float64())
			}
		}
		tr := tc.cfg.Transform
		st := s.Stats()
		if st.Streams != streams {
			t.Fatalf("%v: streams = %d", tr, st.Streams)
		}
		if st.RawHistory != streams*history {
			t.Fatalf("%v: raw history = %d, want %d", tr, st.RawHistory, streams*history)
		}
		if st.FeatureDim != tc.dim {
			t.Fatalf("%v: feature dim = %d", tr, st.FeatureDim)
		}
		for j, l := range st.Levels {
			if l.Window != 4<<uint(j) {
				t.Fatalf("%v: level %d window = %d", tr, j, l.Window)
			}
			if l.UpdateRate != tc.rate {
				t.Fatalf("%v: level %d rate = %d", tr, j, l.UpdateRate)
			}
			if l.Indexed != tc.indexed {
				t.Fatalf("%v: level %d indexed = %v, want %v", tr, j, l.Indexed, tc.indexed)
			}
			// Theorem 4.3: ≈ history/(c·T) boxes per stream.
			want := streams * history / (capacity * tc.rate)
			if l.ThreadBoxes < want-2*streams || l.ThreadBoxes > want+2*streams {
				t.Fatalf("%v: level %d boxes = %d, want ≈ %d", tr, j, l.ThreadBoxes, want)
			}
			if tc.indexed && (l.IndexEntries <= 0 || l.IndexHeight < 1) {
				t.Fatalf("%v: level %d index stats: %d entries height %d", tr, j, l.IndexEntries, l.IndexHeight)
			}
			if !tc.indexed && l.IndexEntries != 0 {
				t.Fatalf("%v: level %d has %d index entries", tr, j, l.IndexEntries)
			}
		}
		if st.TotalBoxes() <= 0 {
			t.Fatalf("%v: total boxes should be positive", tr)
		}
	}
}

// TestStatsIndexLevels: restricted index levels show up in the snapshot.
func TestStatsIndexLevels(t *testing.T) {
	s := newSummary(t, Config{
		W: 4, Levels: 3, Transform: TransformDWT, F: 2, Normalization: NormZ,
		Rate: RateBatch(4), IndexLevels: []int{2},
	}, 1)
	rng := rand.New(rand.NewSource(152))
	for i := 0; i < 100; i++ {
		s.Append(0, rng.Float64())
	}
	st := s.Stats()
	if st.Levels[0].Indexed || st.Levels[1].Indexed || !st.Levels[2].Indexed {
		t.Fatalf("indexed flags wrong: %+v", st.Levels)
	}
	if st.Levels[0].IndexEntries != 0 {
		t.Fatalf("level 0 should have no index entries, got %d", st.Levels[0].IndexEntries)
	}
	if st.Levels[2].IndexEntries == 0 {
		t.Fatal("level 2 should have index entries")
	}
}

func TestApproxBytes(t *testing.T) {
	s := newSummary(t, Config{W: 4, Levels: 2, Transform: TransformSum, HistoryN: 64}, 1)
	empty := s.Stats().ApproxBytes()
	for i := 0; i < 200; i++ {
		s.Append(0, 1)
	}
	full := s.Stats().ApproxBytes()
	if full <= empty {
		t.Fatalf("footprint did not grow: %d -> %d", empty, full)
	}
	// Order of magnitude: 64 raw values + ~96 boxes of dim 1 (no index).
	if full < 1000 || full > 100000 {
		t.Fatalf("footprint %d outside plausible range", full)
	}
}
