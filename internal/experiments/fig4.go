package experiments

import (
	"fmt"
	"math/rand"

	"stardust/internal/adaptive"
	"stardust/internal/aggregate"
	"stardust/internal/core"
	"stardust/internal/gen"
	"stardust/internal/swt"
)

// trainThresholds computes per-window alarm thresholds τ_w = μ_y + λ·σ_y
// from the sliding aggregates y of the training prefix (Section 6.1),
// using the streaming trainer so all windows are handled in one pass.
func trainThresholds(train []float64, windows []int, lambda float64, agg aggregate.Func) map[int]float64 {
	tr, err := adaptive.NewThresholdTrainer(agg, windows)
	if err != nil {
		panic(err)
	}
	for _, v := range train {
		tr.Push(v)
	}
	out := make(map[int]float64, len(windows))
	for _, w := range windows {
		if tr.Samples(w) == 0 {
			// Window exceeds the training prefix; extrapolate from the
			// whole prefix treated as one window.
			out[w] = agg.Scalar(agg.Eval(train)) * (1 + lambda/10)
			continue
		}
		out[w] = tr.ThresholdLambda(w, lambda)
	}
	return out
}

// aggStats accumulates candidate/alarm counts for one technique.
type aggStats struct {
	candidates int64
	confirmed  int64
}

func (a aggStats) precision() float64 { return ratio(a.confirmed, a.candidates) }

// runStardustAgg replays the stream through a Stardust summary, issuing one
// aggregate query per window per arrival, and returns the counts.
func runStardustAgg(data []float64, tr core.Transform, w0 int, levels int, capacity int, windows []int, thresholds map[int]float64) (aggStats, error) {
	cfg := core.Config{
		W: w0, Levels: levels, Transform: tr, BoxCapacity: capacity,
		HistoryN: 2 * (w0 << uint(levels-1)),
	}
	s, err := core.NewSummary(cfg, 1)
	if err != nil {
		return aggStats{}, err
	}
	var st aggStats
	for i, v := range data {
		s.Append(0, v)
		for _, w := range windows {
			if i < w-1 {
				continue
			}
			res, err := s.AggregateQuery(0, w, thresholds[w])
			if err != nil {
				return st, fmt.Errorf("w=%d t=%d: %v", w, i, err)
			}
			if res.Candidate {
				st.candidates++
				if res.Alarm {
					st.confirmed++
				}
			}
		}
	}
	return st, nil
}

// runSWTAgg replays the stream through the SWT baseline.
func runSWTAgg(data []float64, agg aggregate.Func, baseW int, windows []int, thresholds map[int]float64) (aggStats, error) {
	qs := make([]swt.Query, 0, len(windows))
	for _, w := range windows {
		qs = append(qs, swt.Query{W: w, Threshold: thresholds[w]})
	}
	d, err := swt.New(agg, baseW, qs)
	if err != nil {
		return aggStats{}, err
	}
	for _, v := range data {
		d.Push(v)
	}
	return aggStats{candidates: d.Candidates, confirmed: d.Confirmed}, nil
}

// Fig4a reproduces Figure 4(a): burst detection (F = SUM) on the
// burst.dat-like workload, precision versus the threshold factor λ for
// Stardust box capacities c ∈ {1, 5, 25, 150} against SWT. Paper settings:
// K = 20, m = 50 query windows.
func Fig4a(opt Options) error {
	header(opt.Out, "Fig 4(a) burst detection: precision vs factor of threshold", opt.Full)
	rng := rand.New(rand.NewSource(opt.seed()))

	n, k, m := 4000, 20, 20
	lambdas := []float64{4, 8, 12, 16, 20}
	caps := []int{1, 5, 25, 150}
	if opt.Full {
		n, m = 9382, 50
	}
	data := gen.Burst(rng, n, 10, 40)
	train := data[:2000]

	windows := make([]int, m)
	for i := range windows {
		windows[i] = (i + 1) * k
	}
	levels := 1
	for k<<uint(levels-1) < windows[m-1] {
		levels++
	}

	fmt.Fprintf(opt.Out, "%-8s", "lambda")
	for _, c := range caps {
		fmt.Fprintf(opt.Out, "  stardust(c=%d)", c)
	}
	fmt.Fprintf(opt.Out, "  %12s\n", "SWT")
	for _, lambda := range lambdas {
		th := trainThresholds(train, windows, lambda, aggregate.Sum)
		fmt.Fprintf(opt.Out, "%-8.0f", lambda)
		for _, c := range caps {
			st, err := runStardustAgg(data, core.TransformSum, k, levels, c, windows, th)
			if err != nil {
				return err
			}
			fmt.Fprintf(opt.Out, "  %14.3f", st.precision())
		}
		sw, err := runSWTAgg(data, aggregate.Sum, k, windows, th)
		if err != nil {
			return err
		}
		fmt.Fprintf(opt.Out, "  %12.3f\n", sw.precision())
	}
	return nil
}

// Fig4bc reproduces Figures 4(b) and 4(c): volatility detection
// (F = SPREAD) on the packet.dat-like workload — precision and total alarm
// counts versus the query-set size NW for Stardust capacities against SWT.
// Paper settings: K = 100, λ = 0.12, NW ∈ {50, 60, 70, 80},
// c ∈ {1, 10, 100, 1000}.
func Fig4bc(opt Options) error {
	header(opt.Out, "Fig 4(b)/(c) volatility detection: precision and #alarms vs NW", opt.Full)
	rng := rand.New(rand.NewSource(opt.seed()))

	n, k := 20000, 100
	nws := []int{8, 12, 16}
	caps := []int{1, 10, 100}
	const lambda = 0.12
	if opt.Full {
		n = 360000
		nws = []int{50, 60, 70, 80}
		caps = []int{1, 10, 100, 1000}
	}
	data := gen.Packet(rng, n)
	train := data[:8000]

	fmt.Fprintf(opt.Out, "%-6s", "NW")
	for _, c := range caps {
		fmt.Fprintf(opt.Out, "  st(c=%d) prec/alarms", c)
	}
	fmt.Fprintf(opt.Out, "  %22s\n", "SWT prec/alarms")
	for _, nw := range nws {
		windows := make([]int, nw)
		for i := range windows {
			windows[i] = (i + 1) * k
		}
		levels := 1
		for k<<uint(levels-1) < windows[nw-1] {
			levels++
		}
		th := trainThresholds(train, windows, lambda, aggregate.Spread)
		fmt.Fprintf(opt.Out, "%-6d", nw)
		for _, c := range caps {
			st, err := runStardustAgg(data, core.TransformSpread, k, levels, c, windows, th)
			if err != nil {
				return err
			}
			fmt.Fprintf(opt.Out, "  %11.3f/%-8d", st.precision(), st.candidates)
		}
		sw, err := runSWTAgg(data, aggregate.Spread, k, windows, th)
		if err != nil {
			return err
		}
		fmt.Fprintf(opt.Out, "  %13.3f/%-8d\n", sw.precision(), sw.candidates)
	}
	return nil
}
