package main

import (
	"fmt"
	"math/rand"

	"stardust"
	"stardust/internal/gen"
)

// query-mix: the read side of the same core and index layers. A warm DWT
// z-norm batch server over host-load streams (gen.HostLoads) with no
// watches answers a seeded, fixed interleaving of ad hoc /pattern,
// /nearest, /correlations and lagged /correlations queries; after each
// query one 16-sample TCP frame goes to the next stream in turn, so the
// queries always see fresh features. Every answer is compared with brute
// force over the values acked so far. A checkpoint is taken three
// quarters of the way through.
const (
	mixStreams = 32
	mixW       = 16
	mixLevels  = 4
	mixF       = 4
	mixHistory = 2 * mixW << (mixLevels - 1) // 256
	// mixPrefill warms the server with four histories' worth of samples,
	// so set-up is dominated by steady-state ingest rather than by the
	// first frames' page faults and heap growth.
	mixPrefill = 4 * mixHistory
	mixLevel   = 2 // 64-sample correlation windows
	mixRadius  = 0.6
	mixLag     = 64
	mixK       = 5
	// mixPatternRadius keeps a handful of matches per query.
	mixPatternRadius = 0.2
	// mixRoundsPerSecond sizes the measured phase: one round is one query
	// of each class, each followed by one frame.
	mixRoundsPerSecond = 42
)

var mixPatternLens = []int{48, 64, 96}

func planQueryMix(seed int64, seconds int) *plan {
	rounds := seconds * mixRoundsPerSecond
	frames := rounds * 4
	// Streams take frames in turn, so each gets at most ⌈frames/S⌉.
	perStream := mixPrefill + (frames/mixStreams+1)*mixW
	rng := rand.New(rand.NewSource(seed))
	data := gen.HostLoads(rng, mixStreams, perStream)
	m := &model{data: data, W: mixW, historyN: mixHistory}

	p := &plan{
		name: "query-mix",
		args: []string{"-streams", fmt.Sprint(mixStreams), "-w", fmt.Sprint(mixW), "-levels", fmt.Sprint(mixLevels),
			"-transform", "dwt", "-mode", "batch", "-norm", "z", "-f", fmt.Sprint(mixF)},
		cfg: stardust.Config{Streams: mixStreams, W: mixW, Levels: mixLevels, Coefficients: mixF,
			Transform: stardust.DWT, Mode: stardust.Batch, Normalization: stardust.NormZ},
		data:        data,
		sentinel:    -1,
		model:       m,
		checkEvents: func([]event, []int) (int, error) { return 0, nil },
	}
	for lo := 0; lo < mixPrefill; lo += 64 {
		for s := 0; s < mixStreams; s++ {
			p.prefill = append(p.prefill, op{kind: opFrame, stream: s, lo: lo, hi: lo + 64})
		}
	}
	acked := make([]int, mixStreams)
	for s := range acked {
		acked[s] = mixPrefill
	}
	// probe is a noisy copy of a retained window, so pattern and nearest
	// queries have true matches to find.
	probe := func(n int) []float64 {
		s := rng.Intn(mixStreams)
		end := acked[s] - 1 - rng.Intn(mixHistory-n)
		q := make([]float64, n)
		for i := range q {
			q[i] = data[s][end-n+1+i] + 0.01*rng.NormFloat64()
		}
		return q
	}
	next := 0
	classes := []string{"pattern", "nearest", "correlation", "lagged"}
	for r := 0; r < rounds; r++ {
		rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
		for _, c := range classes {
			q := &query{class: c, level: mixLevel, radius: mixRadius, lag: mixLag, k: mixK}
			switch c {
			case "pattern":
				q.vec, q.radius = probe(mixPatternLens[rng.Intn(len(mixPatternLens))]), mixPatternRadius
			case "nearest":
				q.vec = probe(mixPatternLens[rng.Intn(len(mixPatternLens))])
			}
			s := next % mixStreams
			next++
			p.measured = append(p.measured,
				op{kind: opQuery, q: q},
				op{kind: opFrame, stream: s, lo: acked[s], hi: acked[s] + mixW})
			acked[s] += mixW
		}
		if r == rounds*3/4 {
			p.measured = append(p.measured, op{kind: opCheckpoint})
		}
		p.roundEnd = append(p.roundEnd, len(p.measured))
	}
	return p
}
