package main

import (
	"fmt"
	"math"
	"net/url"
	"sort"
	"strconv"
)

// tol is the relative distance from a threshold or radius within which a
// comparison is excluded rather than judged: the server and this model
// may round the same sum differently in the last bits.
const tol = 1e-9

func near(a, b float64) bool { return math.Abs(a-b) <= tol*math.Max(1, math.Abs(b)) }

// model answers queries from the generated inputs alone. It mirrors the
// server's retention (the last historyN samples of each stream) and its
// batch feature schedule (a feature every W samples at every level), and
// nothing else: every distance and sum here is computed from the raw
// values.
type model struct {
	data     [][]float64
	W        int
	historyN int
	// knnAsked and knnTrue count nearest-neighbour answer slots: asked
	// for, and holding one of the true k nearest distances; knnAnswers
	// and knnExact count whole answers, and those that are the true k
	// nearest.
	knnAsked, knnTrue    int
	knnAnswers, knnExact int
}

// znorm returns the window shifted to mean 0 and scaled to norm 1 (all
// zeros for a constant window).
func znorm(xs []float64) []float64 {
	mu := 0.0
	for _, v := range xs {
		mu += v
	}
	mu /= float64(len(xs))
	ss := 0.0
	for _, v := range xs {
		ss += (v - mu) * (v - mu)
	}
	out := make([]float64, len(xs))
	if ss == 0 {
		return out
	}
	n := math.Sqrt(ss)
	for i, v := range xs {
		out[i] = (v - mu) / n
	}
	return out
}

func dist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// window returns stream s's values over the inclusive time range ending
// at end.
func (m *model) window(s int, end, n int) []float64 { return m.data[s][end-n+1 : end+1] }

// oldest is the earliest retained time of a stream whose clock is now.
func (m *model) oldest(now int) int {
	if o := now + 1 - m.historyN; o > 0 {
		return o
	}
	return 0
}

// latestFeature is the end time of the stream's most recent feature at a
// level window lw (-1 when none exists yet).
func (m *model) latestFeature(now, lw int) int {
	t := (now+1)/m.W*m.W - 1
	if t < lw-1 {
		return -1
	}
	return t
}

type matchJSON struct {
	Stream int
	End    int64
	Dist   float64
}

type pairJSON struct {
	A, B         int
	TimeA, TimeB int64
	Dist         float64
	Correlation  float64
}

type aggAnswer struct {
	Bound struct{ Lo, Hi float64 } `json:"bound"`
	Exact float64                  `json:"exact"`
}

type patternAnswer struct {
	Candidates int         `json:"candidates"`
	Matches    []matchJSON `json:"matches"`
	Partial    bool        `json:"partial"`
}

type corrAnswer struct {
	Screened int        `json:"screened"`
	Pairs    []pairJSON `json:"pairs"`
	Partial  bool       `json:"partial"`
}

type laggedAnswer struct {
	Screened []pairJSON `json:"screened"`
	Partial  bool       `json:"partial"`
}

// query sends one ad hoc query and decodes the answer.
func (r *runner) query(q *query) (any, error) {
	switch q.class {
	case "aggregate":
		var a aggAnswer
		v := url.Values{"stream": {strconv.Itoa(q.stream)}, "window": {strconv.Itoa(q.window)}, "threshold": {"-1e300"}}
		return &a, httpJSON(r.hc, "GET", r.srv.url("/aggregate?"+v.Encode()), nil, &a)
	case "pattern":
		var a patternAnswer
		return &a, httpJSON(r.hc, "POST", r.srv.url("/pattern"), map[string]any{"query": q.vec, "radius": q.radius}, &a)
	case "nearest":
		var a patternAnswer
		return &a, httpJSON(r.hc, "POST", r.srv.url("/nearest"), map[string]any{"query": q.vec, "k": q.k}, &a)
	case "correlation":
		var a corrAnswer
		v := url.Values{"level": {strconv.Itoa(q.level)}, "radius": {strconv.FormatFloat(q.radius, 'g', -1, 64)}}
		return &a, httpJSON(r.hc, "GET", r.srv.url("/correlations?"+v.Encode()), nil, &a)
	case "lagged":
		var a laggedAnswer
		v := url.Values{"level": {strconv.Itoa(q.level)}, "radius": {strconv.FormatFloat(q.radius, 'g', -1, 64)}, "lag": {strconv.Itoa(q.lag)}}
		return &a, httpJSON(r.hc, "GET", r.srv.url("/correlations?"+v.Encode()), nil, &a)
	}
	return nil, fmt.Errorf("unknown query class %q", q.class)
}

// check compares one answer with the model over the values acked so
// far. It returns the number of comparisons excluded for lying within
// tolerance of the radius.
func (m *model) check(q *query, acked []int, ans any) (int, error) {
	switch a := ans.(type) {
	case *aggAnswer:
		now := acked[q.stream] - 1
		sum := 0.0
		for _, v := range m.window(q.stream, now, q.window) {
			sum += v
		}
		slack := tol * math.Max(1, math.Abs(sum))
		if a.Bound.Lo > sum+slack || a.Bound.Hi < sum-slack {
			return 0, fmt.Errorf("stream %d window %d: bound [%v, %v] does not enclose the exact sum %v", q.stream, q.window, a.Bound.Lo, a.Bound.Hi, sum)
		}
		if !near(a.Exact, sum) {
			return 0, fmt.Errorf("stream %d window %d: exact %v, want %v", q.stream, q.window, a.Exact, sum)
		}
		return 0, nil
	case *patternAnswer:
		if a.Partial {
			return 0, fmt.Errorf("partial answer")
		}
		if q.class == "nearest" {
			return m.checkNearest(q, acked, a.Matches)
		}
		return m.checkPattern(q, acked, a.Matches)
	case *corrAnswer:
		if a.Partial {
			return 0, fmt.Errorf("partial answer")
		}
		got := make(map[[4]int64]bool, len(a.Pairs))
		for _, p := range a.Pairs {
			got[[4]int64{int64(p.A), int64(p.B), p.TimeA, p.TimeB}] = true
		}
		return m.checkPairs(q, acked, got)
	case *laggedAnswer:
		if a.Partial {
			return 0, fmt.Errorf("partial answer")
		}
		return m.checkLagged(q, acked, a.Screened)
	}
	return 0, fmt.Errorf("unknown answer %T", ans)
}

// scan returns every retained alignment of the query with its exact
// z-normalized distance.
func (m *model) scan(q []float64, acked []int, visit func(s, end int, d float64)) {
	zq := znorm(q)
	n := len(q)
	for s := range m.data {
		now := acked[s] - 1
		lo := m.oldest(now) + n - 1
		for end := lo; end <= now; end++ {
			visit(s, end, dist(zq, znorm(m.window(s, end, n))))
		}
	}
}

func (m *model) checkPattern(q *query, acked []int, got []matchJSON) (int, error) {
	gotSet := make(map[[2]int64]float64, len(got))
	for _, g := range got {
		gotSet[[2]int64{int64(g.Stream), g.End}] = g.Dist
	}
	excluded := 0
	var err error
	m.scan(q.vec, acked, func(s, end int, d float64) {
		if err != nil {
			return
		}
		key := [2]int64{int64(s), int64(end)}
		gd, ok := gotSet[key]
		switch {
		case near(d, q.radius):
			excluded++
			delete(gotSet, key)
		case d < q.radius:
			if !ok {
				err = fmt.Errorf("match stream %d end %d (distance %v ≤ %v) dismissed", s, end, d, q.radius)
			} else if !near(gd, d) {
				err = fmt.Errorf("match stream %d end %d: distance %v, want %v", s, end, gd, d)
			}
			delete(gotSet, key)
		}
	})
	if err != nil {
		return 0, err
	}
	for k, d := range gotSet {
		return 0, fmt.Errorf("false match stream %d end %d distance %v (radius %v)", k[0], k[1], d, q.radius)
	}
	return excluded, nil
}

func (m *model) checkNearest(q *query, acked []int, got []matchJSON) (int, error) {
	var all []float64
	m.scan(q.vec, acked, func(_, _ int, d float64) { all = append(all, d) })
	sort.Float64s(all)
	k := q.k
	if k > len(all) {
		k = len(all)
	}
	if len(got) != k {
		return 0, fmt.Errorf("%d nearest matches, want %d", len(got), k)
	}
	gd := make([]float64, len(got))
	seen := make(map[[2]int64]bool, len(got))
	for i, g := range got {
		key := [2]int64{int64(g.Stream), g.End}
		if seen[key] {
			return 0, fmt.Errorf("nearest stream %d end %d returned twice", g.Stream, g.End)
		}
		seen[key] = true
		gd[i] = g.Dist
		// Each returned distance must be the true distance of its
		// alignment.
		if d := dist(znorm(q.vec), znorm(m.window(g.Stream, int(g.End), len(q.vec)))); !near(g.Dist, d) {
			return 0, fmt.Errorf("nearest stream %d end %d: distance %v, want %v", g.Stream, g.End, g.Dist, d)
		}
	}
	for i := 1; i < len(gd); i++ {
		if gd[i] < gd[i-1] {
			return 0, fmt.Errorf("nearest matches not in increasing distance order: %v", gd)
		}
	}
	// The k returned need not be the true k nearest: the index walk is
	// approximate (see CHANGES.md). How many of them are is counted as a
	// per-layer figure rather than judged: whether a given answer is
	// exact depends on the seed's data, so counting the inexact ones as
	// failed operations would make the failed share differ from seed to
	// seed.
	m.knnAsked += k
	m.knnAnswers++
	exact := 0
	for _, d := range gd {
		if k > 0 && d <= all[k-1]*(1+tol) {
			m.knnTrue++
			exact++
		}
	}
	if exact == k {
		m.knnExact++
	}
	return 0, nil
}

// corrCandidates enumerates the pairs a synchronous correlation round at
// the current clocks can report: for each stream A with a feature at the
// level, every higher-numbered stream B holding a retained feature ending
// at the same time.
func (m *model) corrCandidates(level int, acked []int, visit func(a, b, t int, d float64)) {
	lw := m.W << level
	for a := range m.data {
		nowA := acked[a] - 1
		t := m.latestFeature(nowA, lw)
		if t < 0 || t-lw+1 < m.oldest(nowA) {
			continue
		}
		za := znorm(m.window(a, t, lw))
		for b := a + 1; b < len(m.data); b++ {
			nowB := acked[b] - 1
			if t > nowB || t-lw+1 < m.oldest(nowB) {
				continue
			}
			visit(a, b, t, dist(za, znorm(m.window(b, t, lw))))
		}
	}
}

func (m *model) checkPairs(q *query, acked []int, got map[[4]int64]bool) (int, error) {
	excluded := 0
	var err error
	m.corrCandidates(q.level, acked, func(a, b, t int, d float64) {
		key := [4]int64{int64(a), int64(b), int64(t), int64(t)}
		switch {
		case near(d, q.radius):
			excluded++
		case d < q.radius:
			if !got[key] && err == nil {
				err = fmt.Errorf("pair (%d, %d) at t=%d (distance %v ≤ %v) dismissed", a, b, t, d, q.radius)
			}
		default:
			if got[key] && err == nil {
				err = fmt.Errorf("false pair (%d, %d) at t=%d (distance %v > %v)", a, b, t, d, q.radius)
			}
		}
		delete(got, key)
	})
	if err != nil {
		return 0, err
	}
	for k := range got {
		return 0, fmt.Errorf("pair %v reported but not a current synchronous pair", k)
	}
	return excluded, nil
}

// checkLagged checks the lagged screen for false dismissals: every pair
// whose windows are truly within the radius, A's at its latest feature
// time and B's at a retained feature time up to lag steps earlier, must
// be among the screened pairs.
func (m *model) checkLagged(q *query, acked []int, got []pairJSON) (int, error) {
	set := make(map[[4]int64]bool, len(got))
	for _, p := range got {
		set[[4]int64{int64(p.A), int64(p.B), p.TimeA, p.TimeB}] = true
	}
	lw := m.W << q.level
	excluded := 0
	for a := range m.data {
		ta := m.latestFeature(acked[a]-1, lw)
		if ta < 0 {
			continue
		}
		za := znorm(m.window(a, ta, lw))
		for b := range m.data {
			if b == a {
				continue
			}
			nowB := acked[b] - 1
			for tb := m.latestFeature(nowB, lw); tb >= ta-q.lag && tb >= lw-1; tb -= m.W {
				if tb > ta || tb < m.oldest(nowB) {
					continue
				}
				d := dist(za, znorm(m.window(b, tb, lw)))
				switch {
				case near(d, q.radius):
					excluded++
				case d < q.radius && !set[[4]int64{int64(a), int64(b), int64(ta), int64(tb)}]:
					return 0, fmt.Errorf("lagged pair (%d@%d, %d@%d) at distance %v ≤ %v dismissed", a, ta, b, tb, d, q.radius)
				}
			}
		}
	}
	return excluded, nil
}
