package core

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"stardust/internal/gen"
)

// roundTrip snapshots and reloads a summary.
func roundTrip(t *testing.T, s *Summary) *Summary {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSummary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestSnapshotRoundTripAggregate: a restored aggregate summary answers
// queries identically and keeps ingesting identically.
func TestSnapshotRoundTripAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	s := newSummary(t, Config{
		W: 5, Levels: 4, Transform: TransformSpread, BoxCapacity: 3, HistoryN: 200,
	}, 2)
	data := gen.RandomWalks(rng, 2, 300)
	for i := 0; i < 300; i++ {
		s.Append(0, data[0][i])
		s.Append(1, data[1][i])
	}
	loaded := roundTrip(t, s)

	for _, w := range []int{5, 15, 35} {
		for st := 0; st < 2; st++ {
			a, err := s.AggregateBound(st, w)
			if err != nil {
				t.Fatal(err)
			}
			b, err := loaded.AggregateBound(st, w)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("stream %d w=%d: bound %v vs %v", st, w, a, b)
			}
		}
	}
	// Continue ingesting on both; they must stay in lockstep.
	more := gen.RandomWalks(rng, 2, 100)
	for i := 0; i < 100; i++ {
		for st := 0; st < 2; st++ {
			s.Append(st, more[st][i])
			loaded.Append(st, more[st][i])
		}
	}
	a, _ := s.AggregateBound(0, 35)
	b, _ := loaded.AggregateBound(0, 35)
	if a != b {
		t.Fatalf("post-restore divergence: %v vs %v", a, b)
	}
}

// TestSnapshotRoundTripDWT: pattern query results survive the round trip,
// including the rebuilt indexes.
func TestSnapshotRoundTripDWT(t *testing.T) {
	rng := rand.New(rand.NewSource(212))
	s := newSummary(t, Config{
		W: 8, Levels: 4, Transform: TransformDWT, F: 4,
		Normalization: NormUnit, Rmax: 120, BoxCapacity: 4, HistoryN: 512,
	}, 3)
	data := gen.RandomWalks(rng, 3, 400)
	for i := 0; i < 400; i++ {
		for st := 0; st < 3; st++ {
			s.Append(st, data[st][i])
		}
	}
	loaded := roundTrip(t, s)

	q := make([]float64, 88)
	copy(q, data[1][300:388])
	ra, err := s.PatternQueryOnline(q, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := loaded.PatternQueryOnline(q, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Candidates) != len(rb.Candidates) || len(ra.Matches) != len(rb.Matches) {
		t.Fatalf("results differ: %d/%d vs %d/%d",
			len(ra.Candidates), len(ra.Matches), len(rb.Candidates), len(rb.Matches))
	}
	for i := range ra.Matches {
		if ra.Matches[i].Stream != rb.Matches[i].Stream || ra.Matches[i].End != rb.Matches[i].End {
			t.Fatalf("match %d differs", i)
		}
	}
	// Index invariants hold after the rebuild.
	for j := 0; j < 4; j++ {
		if err := loaded.Tree(j).CheckInvariants(); err != nil {
			t.Fatalf("level %d: %v", j, err)
		}
		if loaded.Tree(j).Len() != s.Tree(j).Len() {
			t.Fatalf("level %d index size %d vs %d", j, loaded.Tree(j).Len(), s.Tree(j).Len())
		}
	}
}

// TestSnapshotRoundTripComposite: the z-norm composite configuration
// (batch correlation monitoring) restores correctly, including the derived
// z features in the rebuilt index.
func TestSnapshotRoundTripComposite(t *testing.T) {
	rng := rand.New(rand.NewSource(213))
	cfg := Config{
		W: 16, Levels: 3, Transform: TransformDWT, F: 4,
		Normalization: NormZ, Rate: RateBatch(16), HistoryN: 128,
	}
	s := newSummary(t, cfg, 6)
	data := gen.CorrelatedWalks(rng, 6, 256, 2, 0.2)
	for i := 0; i < 256; i++ {
		for st := 0; st < 6; st++ {
			s.Append(st, data[st][i])
		}
	}
	loaded := roundTrip(t, s)
	if !loaded.zcomposite() {
		t.Fatal("restored summary should use the composite path")
	}
	pa, err := s.CorrelationScreen(2, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := loaded.CorrelationScreen(2, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(pa) != len(pb) {
		t.Fatalf("screened %d vs %d pairs", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("pair %d differs: %+v vs %+v", i, pa[i], pb[i])
		}
	}
}

// TestSnapshotSWATRates: per-level rates survive via the evaluated array.
func TestSnapshotSWATRates(t *testing.T) {
	s := newSummary(t, Config{
		W: 4, Levels: 4, Transform: TransformSum, Rate: RateSWAT, HistoryN: 128,
	}, 1)
	for i := 0; i < 128; i++ {
		s.Append(0, 1)
	}
	loaded := roundTrip(t, s)
	for j := 0; j < 4; j++ {
		if got := loaded.Config().Rate(j); got != 1<<uint(j) {
			t.Fatalf("restored rate T_%d = %d, want %d", j, got, 1<<uint(j))
		}
	}
	// Features keep firing on the SWAT schedule after restore.
	for i := 128; i < 160; i++ {
		loaded.Append(0, 1)
	}
	if _, ok := loaded.FeatureBoxAt(0, 2, 159); !ok {
		t.Fatal("post-restore SWAT feature missing")
	}
}

// TestLoadSummaryRejectsGarbage: corrupt input fails cleanly.
func TestLoadSummaryRejectsGarbage(t *testing.T) {
	if _, err := LoadSummary(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage should fail to load")
	}
	if _, err := LoadSummary(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input should fail to load")
	}
}

// TestPropertySnapshotRoundTrip: random configurations and data must
// survive snapshot/load with identical query behavior.
func TestPropertySnapshotRoundTrip(t *testing.T) {
	transforms := []Transform{TransformSum, TransformSpread, TransformDWT}
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(300 + trial)))
		cfg := Config{
			W:           4 << uint(rng.Intn(2)), // 4 or 8
			Levels:      2 + rng.Intn(3),
			Transform:   transforms[rng.Intn(len(transforms))],
			BoxCapacity: 1 + rng.Intn(6),
			F:           2,
		}
		if cfg.Transform == TransformDWT && rng.Intn(2) == 0 {
			cfg.Normalization = NormUnit
			cfg.Rmax = 200
		}
		s, err := NewSummary(cfg, 1+rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		n := 100 + rng.Intn(300)
		for i := 0; i < n; i++ {
			for st := 0; st < s.NumStreams(); st++ {
				s.Append(st, rng.Float64()*100)
			}
		}
		loaded := roundTrip(t, s)
		// Compare every retained feature box across streams and levels.
		for st := 0; st < s.NumStreams(); st++ {
			for j := 0; j < cfg.Levels; j++ {
				tNow := s.Now(st)
				for back := int64(0); back < 20 && tNow-back >= 0; back++ {
					a, okA := s.FeatureBoxAt(st, j, tNow-back)
					b, okB := loaded.FeatureBoxAt(st, j, tNow-back)
					if okA != okB {
						t.Fatalf("trial %d: feature availability differs at level %d t-%d", trial, j, back)
					}
					if okA && !a.Equal(b) {
						t.Fatalf("trial %d: feature differs at level %d t-%d: %v vs %v", trial, j, back, a, b)
					}
				}
				if s.Tree(j).Len() != loaded.Tree(j).Len() {
					t.Fatalf("trial %d: index sizes differ at level %d", trial, j)
				}
			}
		}
	}
}

// TestLoadIndexedAggregateSnapshot: a snapshot written when aggregate
// summaries still indexed their sealed boxes (Indexed marks set, index
// fronts advanced by the index horizon) loads with empty level indexes and
// every mark cleared, answers every aggregate query as before, and after
// more ingest re-snapshots byte-identically to a twin that never indexed.
func TestLoadIndexedAggregateSnapshot(t *testing.T) {
	const streams = 3
	live := newSummary(t, Config{
		W: 4, Levels: 4, Transform: TransformSum, BoxCapacity: 3,
		HistoryN: 128, IndexHorizon: 32,
	}, streams)
	rng := rand.New(rand.NewSource(212))
	data := gen.RandomWalks(rng, streams, 600)
	for i := 0; i < 400; i++ {
		for st := 0; st < streams; st++ {
			live.Append(st, data[st][i])
		}
	}
	var buf bytes.Buffer
	if err := live.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	// Mark the boxes as an indexing summary would have left them: sealed
	// boxes newer than the index horizon indexed, older ones behind the
	// index front.
	marked, fronts := 0, 0
	for _, ss := range snap.Streams {
		now := ss.FirstTime + int64(len(ss.Values)) - 1
		horizon := now - int64(snap.Config.IndexHorizon) + 1
		for j := range ss.Levels {
			lvl := &ss.Levels[j]
			for lvl.IdxFront < len(lvl.Boxes) && lvl.Boxes[lvl.IdxFront].T2 < horizon {
				lvl.IdxFront++
			}
			fronts += lvl.IdxFront
			for i := lvl.IdxFront; i < len(lvl.Boxes); i++ {
				if lvl.Boxes[i].Sealed {
					lvl.Boxes[i].Indexed = true
					marked++
				}
			}
		}
	}
	if marked == 0 || fronts == 0 {
		t.Fatalf("old-format snapshot has %d indexed boxes and index fronts summing to %d", marked, fronts)
	}
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSummary(&old)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < loaded.Config().Levels; j++ {
		if n := loaded.Tree(j).Len(); n != 0 {
			t.Fatalf("level %d index rebuilt with %d entries", j, n)
		}
	}
	for i, st := range loaded.streams {
		for j, sl := range st.levels {
			if sl.idxFront != 0 {
				t.Fatalf("stream %d level %d: index front %d", i, j, sl.idxFront)
			}
			for _, lb := range sl.boxes {
				if lb.indexed {
					t.Fatalf("stream %d level %d: box %d..%d still marked indexed", i, j, lb.t1, lb.t2)
				}
			}
		}
	}
	for st := 0; st < streams; st++ {
		for _, w := range []int{4, 12, 28, 60} {
			a, err := live.AggregateBound(st, w)
			if err != nil {
				t.Fatal(err)
			}
			b, err := loaded.AggregateBound(st, w)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("stream %d w=%d: bound %v vs %v", st, w, a, b)
			}
			threshold := a.Lo + (a.Hi-a.Lo)/2
			qa, err := live.AggregateQuery(st, w, threshold)
			if err != nil {
				t.Fatal(err)
			}
			qb, err := loaded.AggregateQuery(st, w, threshold)
			if err != nil {
				t.Fatal(err)
			}
			if qa != qb {
				t.Fatalf("stream %d w=%d: query %+v vs %+v", st, w, qa, qb)
			}
		}
	}
	for i := 400; i < 600; i++ {
		for st := 0; st < streams; st++ {
			live.Append(st, data[st][i])
			loaded.Append(st, data[st][i])
		}
	}
	var a, b bytes.Buffer
	if err := live.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("re-snapshot after more ingest differs from the live twin's")
	}
}
