package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"stardust"
	"stardust/internal/gen"
)

// correlation-watch: the standing-query engine. Grouped correlated walks
// (gen.CorrelatedWalks) go to a DWT z-norm batch server carrying one
// correlation watch and two pattern watches. Each round sends one
// 16-sample frame per stream, aligned so that every frame ends on a
// feature boundary and triggers the watch evaluation, then polls the
// same correlation round ad hoc and drains /events. A checkpoint is taken
// three quarters of the way through.
const (
	corrStreams = 48
	corrGroup   = 4
	corrJitter  = 0.2
	corrW       = 16
	corrLevels  = 3
	corrF       = 4
	corrLevel   = 2 // 64-sample windows
	corrRadius  = 0.12
	// corrPatternLen is the pattern watches' query length: the largest
	// batch level it can use is 1 (2W + W − 1 ≤ 48).
	corrPatternLen    = 48
	corrPatternRadius = 0.25
	corrPatterns      = 2
	// corrPrefill fills the 128-sample raw history.
	corrPrefill = 128
	// corrRoundsPerSecond sizes the measured phase: one round is one
	// 16-tick block (48 frames).
	corrRoundsPerSecond = 5
)

func planCorrWatch(seed int64, seconds int) *plan {
	rounds := seconds * corrRoundsPerSecond
	ticks := corrPrefill + rounds*corrW
	rng := rand.New(rand.NewSource(seed))
	data := gen.CorrelatedWalks(rng, corrStreams, ticks, corrGroup, corrJitter)

	// The pattern watches look for two fixed shapes, a ramp and a peak,
	// so the candidate volume they screen depends on the streams as a
	// population rather than on one seeded query.
	var spec strings.Builder
	patterns := make([][]float64, corrPatterns)
	for i := range patterns {
		q := make([]float64, corrPatternLen)
		var parts []string
		for j := range q {
			x := float64(j) / float64(corrPatternLen-1)
			if i == 0 {
				q[j] = x
			} else {
				q[j] = 1 - math.Abs(2*x-1)
			}
			q[j] = math.Round(q[j]*1e4) / 1e4
			parts = append(parts, fmt.Sprintf("%.4f", q[j]))
		}
		patterns[i] = q
		fmt.Fprintf(&spec, "let q%d = [%s];\nwatch m%d pattern query q%d radius %g;\n", i, strings.Join(parts, ", "), i, i, corrPatternRadius)
	}
	fmt.Fprintf(&spec, "watch pairs correlation level %d radius %g;\n", corrLevel, corrRadius)

	p := &plan{
		name: "correlation-watch",
		args: []string{"-streams", fmt.Sprint(corrStreams), "-w", fmt.Sprint(corrW), "-levels", fmt.Sprint(corrLevels),
			"-transform", "dwt", "-mode", "batch", "-norm", "z", "-f", fmt.Sprint(corrF)},
		cfg: stardust.Config{Streams: corrStreams, W: corrW, Levels: corrLevels, Coefficients: corrF,
			Transform: stardust.DWT, Mode: stardust.Batch, Normalization: stardust.NormZ},
		spec:     spec.String(),
		data:     data,
		sentinel: -1,
		model:    &model{data: data, W: corrW, historyN: 2 * corrW << (corrLevels - 1)},
	}
	// Prefill uses the same aligned frames as the measured phase: a
	// synchronous correlation round only pairs streams whose latest
	// features end at the same time, so frame alignment decides which
	// pairs the watch can see.
	block := func(lo int) []op {
		var ops []op
		for s := 0; s < corrStreams; s++ {
			ops = append(ops, op{kind: opFrame, stream: s, lo: lo, hi: lo + corrW})
		}
		return ops
	}
	for lo := 0; lo < corrPrefill; lo += corrW {
		p.prefill = append(p.prefill, block(lo)...)
		p.prefill = append(p.prefill, op{kind: opDrain})
	}
	for r := 0; r < rounds; r++ {
		p.measured = append(p.measured, block(corrPrefill+r*corrW)...)
		p.measured = append(p.measured,
			op{kind: opQuery, q: &query{class: "correlation", level: corrLevel, radius: corrRadius}},
			op{kind: opDrain})
		if r == rounds*3/4 {
			p.measured = append(p.measured, op{kind: opCheckpoint})
		}
		p.roundEnd = append(p.roundEnd, len(p.measured))
	}

	// The derived events are computed once the measured phase is over,
	// so their cost stays out of set-up.
	p.checkEvents = func(evs []event, acked []int) (int, error) {
		want, excluded := corrExpected(p.model, ticks)
		n, err := checkCorrEvents(p.model, patterns, want, evs)
		return n + excluded, err
	}
	return p
}

// corrExpected is the brute-force set of within-radius pairs at every
// feature time of the correlation level, over the whole input.
func corrExpected(m *model, n int) (map[[3]int]float64, int) {
	lw := m.W << corrLevel
	want := make(map[[3]int]float64)
	excluded := 0
	for t := lw - 1; t < n; t += m.W {
		z := make([][]float64, len(m.data))
		for s := range m.data {
			z[s] = znorm(m.window(s, t, lw))
		}
		for a := range z {
			for b := a + 1; b < len(z); b++ {
				d := dist(z[a], z[b])
				switch {
				case near(d, corrRadius):
					excluded++
					want[[3]int{a, b, t}] = math.NaN()
				case d < corrRadius:
					want[[3]int{a, b, t}] = d
				}
			}
		}
	}
	return want, excluded
}

// checkCorrEvents requires the delivered correlation pairs to equal the
// brute-force set, each once, and every pattern match to lie within the
// radius when its distance is recomputed from the inputs.
func checkCorrEvents(m *model, patterns [][]float64, want map[[3]int]float64, evs []event) (int, error) {
	seen := make(map[[3]int]bool)
	matches := make(map[[3]int64]bool)
	for _, e := range evs {
		switch e.Kind {
		case evCorrelation:
			key := [3]int{e.Stream, e.StreamB, int(e.Time)}
			if e.TimeB != e.Time {
				return 0, fmt.Errorf("correlation event with unequal times %+v", e)
			}
			if seen[key] {
				return 0, fmt.Errorf("correlation pair delivered twice: %+v", e)
			}
			seen[key] = true
			d, ok := want[key]
			if !ok {
				return 0, fmt.Errorf("false correlation pair %+v", e)
			}
			if !math.IsNaN(d) && !near(e.Value, 1-d*d/2) {
				return 0, fmt.Errorf("pair %v: correlation %v, want %v", key, e.Value, 1-d*d/2)
			}
		case evPattern:
			var i int
			if _, err := fmt.Sscanf(e.Watch, "m%d", &i); err != nil || i < 0 || i >= len(patterns) {
				return 0, fmt.Errorf("pattern event from unknown watch %q", e.Watch)
			}
			key := [3]int64{int64(i), int64(e.Stream), e.Time}
			if matches[key] {
				return 0, fmt.Errorf("pattern match delivered twice: %+v", e)
			}
			matches[key] = true
			q := patterns[i]
			d := dist(znorm(q), znorm(m.window(e.Stream, int(e.Time), len(q))))
			if d > corrPatternRadius*(1+tol) || !near(e.Value, d) {
				return 0, fmt.Errorf("pattern match %+v: recomputed distance %v (radius %v)", e, d, corrPatternRadius)
			}
		default:
			return 0, fmt.Errorf("unexpected event kind %d", e.Kind)
		}
	}
	for key, d := range want {
		if !seen[key] && !math.IsNaN(d) {
			return 0, fmt.Errorf("correlation pair %v at distance %v ≤ %v not delivered", key, d, corrRadius)
		}
	}
	return 0, nil
}
