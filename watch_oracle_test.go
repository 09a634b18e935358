package stardust

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"stardust/internal/gen"
	"stardust/internal/stats"
)

// roundOracle is the standing-query evaluator the Watcher replaced, kept
// as a differential oracle: at every evaluation tick of ANY stream it
// reruns the global FindPattern of each pattern watch and the global
// Correlations of each correlation watch, and reports the results it has
// not reported before. Its dedup sets are never pruned, so it neither
// re-delivers a result nor forgets one.
type roundOracle struct {
	mon      *Monitor
	every    int64
	patterns []oraclePattern
	corrs    []oracleCorr
	seen     map[string]bool
}

type oraclePattern struct {
	id     int
	query  []float64
	radius float64
}

type oracleCorr struct {
	id     int
	level  int
	radius float64
}

func newRoundOracle(t *testing.T, cfg Config) *roundOracle {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &roundOracle{mon: m, every: int64(cfg.W), seen: make(map[string]bool)}
}

// push ingests a frame value by value and returns the events the global
// rounds report.
func (o *roundOracle) push(t *testing.T, stream int, vs []float64) []Event {
	t.Helper()
	var events []Event
	report := func(e Event) {
		if key := eventKey(e); !o.seen[key] {
			o.seen[key] = true
			events = append(events, e)
		}
	}
	for _, v := range vs {
		if err := o.mon.Ingest(stream, v); err != nil {
			t.Fatal(err)
		}
		now := o.mon.Now(stream)
		if (now+1)%o.every != 0 {
			continue
		}
		for _, p := range o.patterns {
			if now < int64(len(p.query))-1 {
				continue
			}
			res, err := o.mon.FindPattern(p.query, p.radius)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range res.Matches {
				report(Event{Kind: EventPattern, WatchID: p.id, Stream: m.Stream, Time: m.End, Value: m.Dist})
			}
		}
		for _, c := range o.corrs {
			res, err := o.mon.Correlations(c.level, c.radius)
			if err != nil {
				t.Fatal(err)
			}
			for _, pr := range res.Pairs {
				report(Event{
					Kind: EventCorrelation, WatchID: c.id, Stream: pr.A, StreamB: pr.B,
					Time: pr.TimeA, TimeB: pr.TimeB, Value: pr.Correlation,
				})
			}
		}
	}
	return events
}

// oracleCase is one configuration the Watcher is checked against the
// oracle on: a monitor, a correlation watch and two pattern watches cut
// from the data (one of them a noisy copy, so matches are sparse).
type oracleCase struct {
	name string
	cfg  Config
	// corrRadius and patRadius are the watches' radii.
	corrRadius, patRadius float64
}

func oracleCases() []oracleCase {
	var cases []oracleCase
	for _, mode := range []Mode{Batch, Online} {
		for _, norm := range []Normalization{NormZ, NormUnit} {
			c := oracleCase{
				name: fmt.Sprintf("%v-%v", mode, norm),
				cfg: Config{
					Streams: 6, W: 8, Levels: 3, Transform: DWT, Mode: mode,
					Coefficients: 4, Normalization: norm, Rmax: 400,
					Parallel: ParallelConfig{Workers: 1},
				},
				corrRadius: 0.3, patRadius: 0.5,
			}
			if norm == NormUnit {
				c.patRadius = 0.005
			}
			cases = append(cases, c)
		}
	}
	return cases
}

const (
	oracleLevel  = 1
	oraclePatLen = 24 // 3W: level 0 + level 1, usable online and batch
	oracleLen    = 192
)

// setUp installs the same watches, in the same order, on the Watcher and
// the oracle, so their watch ids agree.
func (c oracleCase) setUp(t *testing.T, data [][]float64, rng *rand.Rand) (*Watcher, *roundOracle) {
	t.Helper()
	w := newWatcher(t, c.cfg)
	o := newRoundOracle(t, c.cfg)
	id, err := w.WatchCorrelation(oracleLevel, c.corrRadius)
	if err != nil {
		t.Fatal(err)
	}
	o.corrs = append(o.corrs, oracleCorr{id: id, level: oracleLevel, radius: c.corrRadius})
	for k := 0; k < 2; k++ {
		s, at := rng.Intn(len(data)), oraclePatLen+rng.Intn(oracleLen-2*oraclePatLen)
		q := append([]float64(nil), data[s][at:at+oraclePatLen]...)
		if k == 1 {
			for i := range q {
				q[i] += rng.NormFloat64() * 0.3
			}
		}
		id, err := w.WatchPattern(q, c.patRadius)
		if err != nil {
			t.Fatal(err)
		}
		o.patterns = append(o.patterns, oraclePattern{id: id, query: q, radius: c.patRadius})
	}
	return w, o
}

// eventKey identifies an event by everything but its value.
func eventKey(e Event) string {
	return fmt.Sprint(e.WatchID, e.Kind, e.Stream, e.StreamB, e.Time, e.TimeB)
}

func eventJSON(t *testing.T, evs []Event) []byte {
	t.Helper()
	b, err := json.Marshal(evs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWatcherMatchesRoundOracleAligned: with aligned frames (every stream
// gets the same W-sample block in turn, ending on a tick, as the
// end-to-end benchmark sends them) the incremental Watcher emits byte for byte the event
// stream of the global-round oracle, under both maintenance modes and
// both normalizations. Online z-normalized FindPattern can dismiss true
// matches the watch reports (see TestWatchPatternOnlineZMatchesScan), so
// there the pattern events are compared against the linear scan instead.
func TestWatcherMatchesRoundOracleAligned(t *testing.T) {
	for _, c := range oracleCases() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				data := gen.CorrelatedWalks(rng, c.cfg.Streams, oracleLen, 4, 0.2)
				w, o := c.setUp(t, data, rng)
				scanOnly := c.cfg.Mode == Online && c.cfg.Normalization == NormZ
				var got, want []Event
				patterns := 0
				for lo := 0; lo < oracleLen; lo += c.cfg.W {
					for s := range data {
						frame := data[s][lo : lo+c.cfg.W]
						evs, err := w.ingestBatch(s, frame)
						if err != nil {
							t.Fatal(err)
						}
						oevs := o.push(t, s, frame)
						patterns += len(oevs) - len(dropKind(oevs, EventPattern))
						if scanOnly {
							evs, oevs = dropKind(evs, EventPattern), dropKind(oevs, EventPattern)
						}
						got, want = append(got, evs...), append(want, oevs...)
					}
				}
				if patterns == 0 || patterns == len(want) {
					t.Fatalf("oracle reported %d pattern events of %d; the case must exercise both watch kinds", patterns, len(want))
				}
				if g, wj := eventJSON(t, got), eventJSON(t, want); string(g) != string(wj) {
					t.Fatalf("event streams differ:\nwatcher %d events %s\noracle  %d events %s", len(got), g, len(want), wj)
				}
			})
		}
	}
}

func dropKind(evs []Event, k EventKind) []Event {
	var out []Event
	for _, e := range evs {
		if e.Kind != k {
			out = append(out, e)
		}
	}
	return out
}

// TestWatcherCoversRoundOracleInterleaved: under random interleavings of
// 1–23-sample frames (every stream still ends on a tick, so every result
// has been completed by some stream's tick) the Watcher delivers every
// oracle event exactly once with the same value, and each event it adds
// is a true result by brute force. It adds some: the oracle's synchronous
// screen only probes from a pair's lower-id stream, so it misses a pair
// whose lower-id stream has already advanced past the shared feature
// time, while the Watcher probes from whichever stream completes the pair.
// The pattern events equal the brute-force set outright; with z-normalized
// features, whose distance lower-bounds the verified one, so do the
// correlation events at every feature time two streams share on a tick.
// History covers the whole run, so no result is lost to eviction while
// its two streams are far apart.
func TestWatcherCoversRoundOracleInterleaved(t *testing.T) {
	for _, c := range oracleCases() {
		c.cfg.History = oracleLen
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				data := gen.CorrelatedWalks(rng, c.cfg.Streams, oracleLen, 4, 0.2)
				w, o := c.setUp(t, data, rng)
				sent := make([]int, len(data))
				var got, want []Event
				for left := len(data) * oracleLen; left > 0; {
					s := rng.Intn(len(data))
					n := 1 + rng.Intn(23)
					if n > oracleLen-sent[s] {
						n = oracleLen - sent[s]
					}
					if n == 0 {
						continue
					}
					frame := data[s][sent[s] : sent[s]+n]
					evs, err := w.ingestBatch(s, frame)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, evs...)
					want = append(want, o.push(t, s, frame)...)
					sent[s] += n
					left -= n
				}
				delivered := make(map[string]Event)
				for _, e := range got {
					key := eventKey(e)
					if _, dup := delivered[key]; dup {
						t.Fatalf("event delivered twice: %+v", e)
					}
					delivered[key] = e
				}
				for _, e := range want {
					key := eventKey(e)
					g, ok := delivered[key]
					if !ok && c.cfg.Mode == Online && e.Kind == EventCorrelation && (e.Time+1)%int64(c.cfg.W) != 0 {
						// Online features end at every step; the oracle's rounds
						// also pair streams that happen to sit on a non-tick
						// feature time when some other stream ticks. A standing
						// query samples the features at its streams' ticks.
						continue
					}
					if !ok || g.Value != e.Value {
						t.Fatalf("oracle event %+v delivered as %+v (found %v)", e, g, ok)
					}
				}
				checkAgainstBruteForce(t, c, w, data, got)
			})
		}
	}
}

// checkAgainstBruteForce requires every delivered event to be a true
// result with its true value, the pattern events to be every true match,
// and — with z-normalized features — the correlation events to be every
// true pair at the feature times on the level's ticks.
func checkAgainstBruteForce(t *testing.T, c oracleCase, w *Watcher, data [][]float64, got []Event) {
	t.Helper()
	norm := func(xs []float64) []float64 {
		if c.cfg.Normalization == NormUnit {
			return stats.UnitNormalize(xs, c.cfg.Rmax)
		}
		return stats.ZNormalize(xs)
	}
	lw := c.cfg.W << oracleLevel
	excluded := func(d, r float64) bool { return math.Abs(d-r) < 1e-9 }
	truePat := make(map[string]bool)
	for _, p := range w.patterns {
		nq := norm(p.query)
		for s := range data {
			for end := len(p.query) - 1; end < oracleLen; end++ {
				if d := stats.Euclidean(nq, norm(data[s][end-len(p.query)+1:end+1])); d <= p.radius && !excluded(d, p.radius) {
					truePat[fmt.Sprint(p.id, s, end)] = true
				}
			}
		}
	}
	truePair := make(map[string]bool)
	for tt := lw - 1; tt < oracleLen; tt += c.cfg.W {
		for a := range data {
			for b := a + 1; b < len(data); b++ {
				d := stats.Euclidean(stats.ZNormalize(data[a][tt-lw+1:tt+1]), stats.ZNormalize(data[b][tt-lw+1:tt+1]))
				if d <= c.corrRadius && !excluded(d, c.corrRadius) {
					truePair[fmt.Sprint(a, b, tt)] = true
				}
			}
		}
	}
	patterns := make(map[int][]float64)
	for _, p := range w.patterns {
		patterns[p.id] = p.query
	}
	gotPat, gotPair := 0, 0
	for _, e := range got {
		switch e.Kind {
		case EventPattern:
			q := patterns[e.WatchID]
			d := stats.Euclidean(norm(q), norm(data[e.Stream][int(e.Time)-len(q)+1:e.Time+1]))
			if math.Abs(d-e.Value) > 1e-9 || d > c.patRadius+1e-9 {
				t.Fatalf("pattern event %+v: brute-force distance %v (radius %v)", e, d, c.patRadius)
			}
			if truePat[fmt.Sprint(e.WatchID, e.Stream, e.Time)] {
				gotPat++
			}
		case EventCorrelation:
			if e.Stream >= e.StreamB || e.Time != e.TimeB {
				t.Fatalf("correlation event %+v is not an ordered synchronous pair", e)
			}
			d := stats.Euclidean(stats.ZNormalize(data[e.Stream][int(e.Time)-lw+1:e.Time+1]),
				stats.ZNormalize(data[e.StreamB][int(e.Time)-lw+1:e.Time+1]))
			if d > c.corrRadius+1e-9 || math.Abs(stats.CorrelationFromZDist(d)-e.Value) > 1e-9 {
				t.Fatalf("correlation event %+v: brute-force distance %v (radius %v)", e, d, c.corrRadius)
			}
			if truePair[fmt.Sprint(e.Stream, e.StreamB, e.Time)] {
				gotPair++
			}
		}
	}
	if gotPat == 0 || gotPair == 0 {
		t.Fatalf("%d pattern and %d correlation events; the case must exercise both watch kinds", gotPat, gotPair)
	}
	if gotPat != len(truePat) {
		t.Fatalf("%d of %d true pattern matches delivered", gotPat, len(truePat))
	}
	if c.cfg.Normalization == NormZ && gotPair != len(truePair) {
		t.Fatalf("%d of %d true correlated pairs delivered", gotPair, len(truePair))
	}
}

// TestWatchPatternOnlineZMatchesScan: an Online, z-normalized pattern
// watch reports exactly the brute-force matches, frame by frame, although
// the Online FindPattern screen dismisses some of them on this input — the
// watch verifies every new alignment instead of going through that screen.
func TestWatchPatternOnlineZMatchesScan(t *testing.T) {
	const streams, n, qlen, r = 12, 1024, 48, 0.4
	cfg := Config{Streams: streams, W: 16, Levels: 3, Transform: DWT, Mode: Online,
		Coefficients: 4, Normalization: NormZ, Parallel: ParallelConfig{Workers: 1}}
	w := newWatcher(t, cfg)
	data := gen.CorrelatedWalks(rand.New(rand.NewSource(7)), streams, n, 4, 0.5)
	q := make([]float64, qlen)
	for j := range q {
		q[j] = 1 - math.Abs(2*float64(j)/(qlen-1)-1)
	}
	id, err := w.WatchPattern(q, r)
	if err != nil {
		t.Fatal(err)
	}
	nq := stats.ZNormalize(q)
	matches := 0
	for lo := 0; lo < n; lo += cfg.W {
		for s := range data {
			evs, err := w.ingestBatch(s, data[s][lo:lo+cfg.W])
			if err != nil {
				t.Fatal(err)
			}
			var want []Event
			for end := lo; end < lo+cfg.W; end++ {
				if end < qlen-1 {
					continue
				}
				if d := stats.Euclidean(nq, stats.ZNormalize(data[s][end-qlen+1:end+1])); d <= r {
					want = append(want, Event{Kind: EventPattern, WatchID: id, Stream: s, Time: int64(end), Value: d})
				}
			}
			if g, wj := eventJSON(t, evs), eventJSON(t, want); string(g) != string(wj) {
				t.Fatalf("stream %d frame at %d: watch %s, brute force %s", s, lo, g, wj)
			}
			matches += len(want)
		}
	}
	if matches == 0 {
		t.Fatal("the pattern never matched; the test exercises nothing")
	}
}
