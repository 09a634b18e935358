package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"stardust"
	"stardust/internal/gen"
)

// burst-ingest: the write path the paper's burst detection runs on.
// Poisson-plus-burst streams (gen.Burst) go to a SUM/online server with
// box capacity 16 and the write-ahead log on at the default interval
// fsync (as every workload runs it), carrying edge-triggered aggregate
// watches over every stream at three window sizes. Each round sends one 16-sample frame per stream
// (every frame seals one box per level), polls one /aggregate window and
// drains /events. One checkpoint is taken three quarters of the way
// through; after the measured phase the server is killed with SIGKILL and
// restarted from the snapshot plus the log tail.
const (
	burstStreams  = 256
	burstW        = 16
	burstLevels   = 4
	burstCap      = 16
	burstRate     = 10.0
	burstAmp      = 30.0
	burstSentinel = 1000.0
	// burstPrefill fills the 256-sample raw history (2·W·2^(levels−1)),
	// so eviction from the R*-trees runs throughout the measured phase.
	burstPrefill = 256
	// burstRoundsPerSecond sizes the measured phase: one round is one
	// 16-tick block (257 frames), about 200 ms on a 2-vCPU host.
	burstRoundsPerSecond = 7
)

var burstWindows = []int{16, 64, 128}

// burstThreshold sits five standard deviations above the Poisson floor,
// so watches fire on injected bursts and rarely on noise. The fraction
// keeps it off the integer sums of burst-free windows.
func burstThreshold(w int) float64 {
	mean := float64(w) * burstRate
	return math.Floor(mean+5*math.Sqrt(mean)) + 0.37
}

func planBurst(seed int64, seconds int) *plan {
	rounds := seconds * burstRoundsPerSecond
	ticks := burstPrefill + rounds*burstW
	rng := rand.New(rand.NewSource(seed))
	S := burstStreams + 1 // the last stream is the sentinel
	data := make([][]float64, S)
	for s := 0; s < burstStreams; s++ {
		data[s] = gen.Burst(rng, ticks, burstRate, burstAmp)
	}
	data[burstStreams] = make([]float64, ticks)
	for i := range data[burstStreams] {
		data[burstStreams][i] = burstSentinel
	}

	var spec strings.Builder
	for _, w := range burstWindows {
		fmt.Fprintf(&spec, "watch w%d on stream 0..%d aggregate window %d threshold %.2f edge;\n", w, S-1, w, burstThreshold(w))
	}

	p := &plan{
		name: "burst-ingest",
		args: []string{"-streams", fmt.Sprint(S), "-w", fmt.Sprint(burstW), "-levels", fmt.Sprint(burstLevels),
			"-transform", "sum", "-mode", "online", "-c", fmt.Sprint(burstCap)},
		cfg: stardust.Config{Streams: S, W: burstW, Levels: burstLevels, BoxCapacity: burstCap,
			Coefficients: 2, Transform: stardust.Sum, Mode: stardust.Online},
		spec:     spec.String(),
		data:     data,
		sentinel: burstStreams,
		model:    &model{data: data, W: burstW, historyN: 2 * burstW << (burstLevels - 1)},
	}
	// Prefill in 64-sample frames: set-up, not measured.
	for lo := 0; lo < burstPrefill; lo += 64 {
		for s := 0; s < S; s++ {
			p.prefill = append(p.prefill, op{kind: opFrame, stream: s, lo: lo, hi: lo + 64})
		}
		p.prefill = append(p.prefill, op{kind: opDrain})
	}
	for r := 0; r < rounds; r++ {
		lo := burstPrefill + r*burstW
		for s := 0; s < S; s++ {
			p.measured = append(p.measured, op{kind: opFrame, stream: s, lo: lo, hi: lo + burstW})
		}
		p.measured = append(p.measured,
			op{kind: opQuery, q: &query{class: "aggregate", stream: rng.Intn(burstStreams), window: burstWindows[rng.Intn(len(burstWindows))]}},
			op{kind: opDrain})
		if r == rounds*3/4 {
			p.measured = append(p.measured, op{kind: opCheckpoint})
		}
		p.roundEnd = append(p.roundEnd, len(p.measured))
	}

	// The derived events are computed once the measured phase is over,
	// so their cost stays out of set-up.
	p.checkEvents = func(evs []event, acked []int) (int, error) {
		return checkBurstEvents(burstExpected(data, ticks), evs)
	}
	return p
}

type aggEvent struct {
	kind int
	t    int
	v    float64
}

// burstExpect holds, per (stream, watch window), the fire/clear sequence
// an edge-triggered watch must deliver, derived from exact window sums.
type burstExpect struct {
	events   map[[2]int][]aggEvent
	excluded map[[2]int]int // windows within tolerance of the threshold
}

func burstExpected(data [][]float64, n int) *burstExpect {
	exp := &burstExpect{events: make(map[[2]int][]aggEvent), excluded: make(map[[2]int]int)}
	for s := range data {
		for _, w := range burstWindows {
			key := [2]int{s, w}
			th := burstThreshold(w)
			firing := false
			for t := w - 1; t < n; t++ {
				sum := 0.0
				for _, v := range data[s][t-w+1 : t+1] {
					sum += v
				}
				if near(sum, th) {
					exp.excluded[key]++
				}
				alarm := sum >= th
				switch {
				case alarm && !firing:
					exp.events[key] = append(exp.events[key], aggEvent{evAggregate, t, sum})
				case !alarm && firing:
					exp.events[key] = append(exp.events[key], aggEvent{evAggregateCleared, t, sum})
				}
				firing = alarm
			}
		}
	}
	return exp
}

// checkBurstEvents requires each watch's delivered fire/clear sequence to
// equal the derived one. A watch with any window within tolerance of its
// threshold is left out of the comparison and counted.
func checkBurstEvents(exp *burstExpect, evs []event) (int, error) {
	got := make(map[[2]int][]event)
	for _, e := range evs {
		var w int
		if _, err := fmt.Sscanf(e.Watch, "w%d", &w); err != nil {
			return 0, fmt.Errorf("event from unknown watch %q", e.Watch)
		}
		if e.Kind != evAggregate && e.Kind != evAggregateCleared {
			return 0, fmt.Errorf("unexpected event kind %d", e.Kind)
		}
		key := [2]int{e.Stream, w}
		got[key] = append(got[key], e)
	}
	excluded := 0
	for key, want := range exp.events {
		if exp.excluded[key] > 0 {
			excluded += exp.excluded[key]
			delete(got, key)
			continue
		}
		g := got[key]
		if len(g) != len(want) {
			return 0, fmt.Errorf("stream %d window %d: %d events delivered, %d derived", key[0], key[1], len(g), len(want))
		}
		for i := range want {
			if g[i].Kind != want[i].kind || g[i].Time != int64(want[i].t) || !near(g[i].Value, want[i].v) {
				return 0, fmt.Errorf("stream %d window %d event %d: got kind %d t=%d value %v, want kind %d t=%d value %v",
					key[0], key[1], i, g[i].Kind, g[i].Time, g[i].Value, want[i].kind, want[i].t, want[i].v)
			}
		}
		delete(got, key)
	}
	for key, g := range got {
		if exp.excluded[key] == 0 && len(g) > 0 {
			return 0, fmt.Errorf("stream %d window %d: %d events delivered, none derived", key[0], key[1], len(g))
		}
	}
	return excluded, nil
}
