package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"stardust"
	"stardust/internal/obs"
	"stardust/internal/resilience"
	"stardust/internal/spec"
	"stardust/internal/tenant"
	"stardust/internal/wal"
)

// The traced run replays the wire run's exact operation sequence in
// process. Three passes:
//
//  1. replica: the server's own backend stack (SafeWatcher with the spec
//     loaded through the tenant registry, or SafeMonitor; the WAL when the
//     workload has one) fed through the same public calls the transport
//     and HTTP handlers make. It gives the in-process time of each frame
//     and query, the work counts compared exactly with the server's, and
//     the Go runtime's allocation figures.
//  2. twins, untraced: each layer's public function called on its own
//     instance fed the same samples — resilience.Guard.Admit, wal.Log.Append,
//     core.Summary.Append, stardust.Monitor.Ingest and stardust.Watcher.Push.
//  3. twins, traced: the same with a span around every call, written to
//     <out>/spans/. Its time against pass 2 is the tracing overhead.
//
// Spans are recorded from this file, around calls into each layer; no
// span is taken inside the program.

// backend is the surface the server's handlers call.
type backend interface {
	stardust.Interface
	Checkpoint(path string) error
	Close() error
}

type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (tr *tracer) begin(name string, parent int32) int32 {
	if !tr.on {
		return -1
	}
	id := int32(len(tr.spans))
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(tr.t0))})
	return id
}

func (tr *tracer) end(id int32) {
	if id >= 0 {
		tr.spans[id].End = int64(time.Since(tr.t0))
	}
}

// Span names: one per layer call the twins make.
const (
	spFrame   = "frame"
	spAdmit   = "resilience.Guard.Admit"
	spWAL     = "wal.Log.Append"
	spSummary = "core.Summary.Append"
	spIngest  = "stardust.Monitor.Ingest"
	spPush    = "stardust.Watcher.Push"
)

// replica is pass 1's outcome.
type replica struct {
	frameUs    []float64 // measured frames, µs
	queryNs    map[string][]float64
	roundQuery []float64 // each measured round's mean query time, ns
	patReads   []float64 // R*-tree node reads per ad hoc pattern query
	snapNs     []float64
	installMs  float64
	start, end stardust.MetricsSnapshot // around the measured phase
	mem        runtime.MemStats         // measured-phase deltas
	samples    int
}

func runReplica(p *plan, dir string) (*replica, error) {
	cfg := p.cfg
	cfg.Durability = stardust.DurabilityConfig{Dir: filepath.Join(dir, "replica-wal"), Fsync: stardust.FsyncInterval,
		FsyncInterval: 50 * time.Millisecond}
	mon, err := stardust.New(cfg)
	if err != nil {
		return nil, err
	}
	rp := &replica{queryNs: make(map[string][]float64)}
	var be backend
	if p.spec != "" {
		sw := stardust.NewSafeWatcher(mon)
		sw.SetEventSink(func([]stardust.Event) {})
		reg := tenant.New(sw, obs.NewTenantMetrics(), time.Now)
		t0 := time.Now()
		if err := reg.Load("bench", p.spec); err != nil {
			return nil, err
		}
		rp.installMs = float64(time.Since(t0).Nanoseconds()) / 1e6
		be = sw
	} else {
		be = stardust.WrapSafe(mon)
	}
	defer be.Close()
	snap := filepath.Join(dir, "replica.snap")
	do := func(o *op, measured bool) error {
		switch o.kind {
		case opFrame:
			t0 := time.Now()
			err := be.IngestBatch(o.stream, p.data[o.stream][o.lo:o.hi])
			if measured {
				rp.frameUs = append(rp.frameUs, float64(time.Since(t0).Nanoseconds())/1e3)
				rp.samples += o.hi - o.lo
			}
			return err
		case opQuery:
			q := o.q
			var reads0 int64
			if q.class == "pattern" {
				reads0 = be.Metrics().Tree.NodeReads
			}
			t0 := time.Now()
			var err error
			switch q.class {
			case "aggregate":
				_, err = be.CheckAggregate(q.stream, q.window, -1e300)
			case "pattern":
				_, err = be.FindPattern(q.vec, q.radius)
			case "nearest":
				_, err = be.NearestPatterns(q.vec, q.k)
			case "correlation":
				_, err = be.Correlations(q.level, q.radius)
			case "lagged":
				_, err = be.LaggedCorrelations(q.level, q.radius, q.lag)
			}
			if measured {
				rp.queryNs[q.class] = append(rp.queryNs[q.class], float64(time.Since(t0).Nanoseconds()))
				if q.class == "pattern" {
					rp.patReads = append(rp.patReads, float64(be.Metrics().Tree.NodeReads-reads0))
				}
			}
			return err
		case opCheckpoint:
			for i := 0; i < checkpointRepeats; i++ {
				t0 := time.Now()
				if err := be.Checkpoint(snap); err != nil {
					return err
				}
				rp.snapNs = append(rp.snapNs, float64(time.Since(t0).Nanoseconds()))
			}
		}
		return nil
	}
	for i := range p.prefill {
		if err := do(&p.prefill[i], false); err != nil {
			return nil, err
		}
	}
	rp.start = be.Metrics()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := 0
	for _, end := range p.roundEnd {
		var qs []float64
		for i := start; i < end; i++ {
			o := &p.measured[i]
			if err := do(o, true); err != nil {
				return nil, err
			}
			if o.kind == opQuery {
				xs := rp.queryNs[o.q.class]
				qs = append(qs, xs[len(xs)-1])
			}
		}
		if len(qs) > 0 {
			rp.roundQuery = append(rp.roundQuery, sum(qs)/float64(len(qs)))
		}
		start = end
	}
	runtime.ReadMemStats(&m1)
	rp.end = be.Metrics()
	rp.mem = runtime.MemStats{Mallocs: m1.Mallocs - m0.Mallocs, TotalAlloc: m1.TotalAlloc - m0.TotalAlloc, NumGC: m1.NumGC - m0.NumGC}
	return rp, nil
}

// twins holds one instance per traced layer, each fed every sample.
type twins struct {
	guard   *resilience.Guard
	log     *wal.Log
	sum     *stardust.Monitor // its Summary is appended to directly
	sumMet  *obs.Metrics
	mon     *stardust.Monitor
	watcher *stardust.Watcher
}

func newTwins(p *plan, dir string) (*twins, error) {
	cfg := p.cfg
	tw := &twins{guard: resilience.NewGuard(cfg.BadValues, cfg.Streams)}
	var err error
	tw.log, err = wal.Open(wal.Config{Dir: dir, Policy: stardust.FsyncInterval, Interval: 50 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	if tw.sum, err = stardust.New(cfg); err != nil {
		return nil, err
	}
	tw.sumMet = obs.NewMetrics()
	tw.sum.Summary().SetMetrics(tw.sumMet)
	if tw.mon, err = stardust.New(cfg); err != nil {
		return nil, err
	}
	wm, err := stardust.New(cfg)
	if err != nil {
		return nil, err
	}
	tw.watcher = stardust.NewWatcher(wm)
	if p.spec != "" {
		parsed, err := spec.Parse(p.spec)
		if err != nil {
			return nil, err
		}
		compiled, err := spec.Compile(parsed, spec.CompileOptions{Streams: cfg.Streams})
		if err != nil {
			return nil, err
		}
		if _, err := spec.Install(tw.watcher, compiled, nil); err != nil {
			return nil, err
		}
	}
	return tw, nil
}

func (tw *twins) close() { tw.log.Close() }

// twinTimes collects the traced pass's per-sample timings of the summary
// append, split by whether the append sealed a box into the R*-tree.
type twinTimes struct {
	appendNs, sealNs []float64
}

// frame feeds one frame to every twin. With tr on, each layer's calls for
// the frame get one span, and each summary append is timed.
func (tw *twins) frame(p *plan, o *op, tr *tracer, tt *twinTimes) error {
	vs := p.data[o.stream][o.lo:o.hi]
	root := tr.begin(spFrame, -1)
	id := tr.begin(spAdmit, root)
	for _, v := range vs {
		if _, err := tw.guard.Admit(o.stream, v); err != nil {
			return err
		}
	}
	tr.end(id)
	id = tr.begin(spWAL, root)
	for i, v := range vs {
		if _, err := tw.log.Append(o.stream, int64(o.lo+i), []float64{v}); err != nil {
			return err
		}
	}
	tr.end(id)
	id = tr.begin(spSummary, root)
	sum := tw.sum.Summary()
	for _, v := range vs {
		if tr.on {
			before := tw.sumMet.Tree.Inserts.Load()
			t0 := time.Now()
			sum.Append(o.stream, v)
			ns := float64(time.Since(t0).Nanoseconds())
			if tw.sumMet.Tree.Inserts.Load() != before {
				tt.sealNs = append(tt.sealNs, ns)
			} else {
				tt.appendNs = append(tt.appendNs, ns)
			}
		} else {
			sum.Append(o.stream, v)
		}
	}
	tr.end(id)
	id = tr.begin(spIngest, root)
	for _, v := range vs {
		if err := tw.mon.Ingest(o.stream, v); err != nil {
			return err
		}
	}
	tr.end(id)
	id = tr.begin(spPush, root)
	for _, v := range vs {
		if _, err := tw.watcher.Push(o.stream, v); err != nil {
			return err
		}
	}
	tr.end(id)
	tr.end(root)
	return nil
}

// runTwins replays the frames through fresh twins and returns the
// measured phase's wall time.
func runTwins(p *plan, dir string, tr *tracer, tt *twinTimes) (time.Duration, error) {
	tw, err := newTwins(p, dir)
	if err != nil {
		return 0, err
	}
	defer tw.close()
	off := &tracer{}
	for i := range p.prefill {
		if o := &p.prefill[i]; o.kind == opFrame {
			if err := tw.frame(p, o, off, tt); err != nil {
				return 0, err
			}
		}
	}
	tr.t0 = time.Now()
	for i := range p.measured {
		if o := &p.measured[i]; o.kind == opFrame {
			if err := tw.frame(p, o, tr, tt); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(tr.t0), nil
}

// traceResult runs the three in-process passes after the wire run and
// returns the per-layer metrics.
func traceResult(p *plan, wr *wireRun, dir, out string, seed int64) (*result, error) {
	rp, err := runReplica(p, dir)
	if err != nil {
		return nil, fmt.Errorf("replica replay: %w", err)
	}
	if err := compareCounts(p, wr.promEnd, rp.end); err != nil {
		return nil, err
	}
	untraced, err := runTwins(p, filepath.Join(dir, "twin-wal-0"), &tracer{}, &twinTimes{})
	if err != nil {
		return nil, fmt.Errorf("untraced twins: %w", err)
	}
	tr := &tracer{on: true}
	tt := &twinTimes{}
	traced, err := runTwins(p, filepath.Join(dir, "twin-wal-1"), tr, tt)
	if err != nil {
		return nil, fmt.Errorf("traced twins: %w", err)
	}
	spanPath := filepath.Join(mustMkdir(filepath.Join(out, "spans")), fmt.Sprintf("%s-seed%d.jsonl", p.name, seed))
	if err := writeSpans(spanPath, tr.spans); err != nil {
		return nil, err
	}
	layers := selfTimes(tr.spans)
	m := perLayer(p, wr, rp, layers, tt)
	m["trace.overhead"] = metric{traced.Seconds()/untraced.Seconds() - 1, "ratio"}
	report(p, wr, rp, layers, m, untraced, traced, spanPath)
	return &result{Correct: true, Attempted: wr.attempted, Failed: wr.failed, Metrics: m}, nil
}

// compareCounts requires the work the server counted over the wire to
// equal the replica's count for the same inputs: R*-tree inserts,
// pattern and correlation candidates, and watch events.
func compareCounts(p *plan, wire map[string]float64, in stardust.MetricsSnapshot) error {
	pairs := []struct {
		series string
		got    int64
	}{
		{"stardust_index_inserts_total", in.Tree.Inserts},
		{`stardust_query_candidates_total{class="pattern"}`, in.Pattern.Candidates},
		{`stardust_query_candidates_total{class="correlation"}`, in.Correlation.Candidates},
		{"stardust_watch_events_fired_total", in.Watch.Fired},
		{"stardust_watch_events_cleared_total", in.Watch.Cleared},
	}
	for _, c := range pairs {
		w, ok := wire[c.series]
		if !ok {
			return fmt.Errorf("server exposes no %s", c.series)
		}
		if int64(w) != c.got {
			return fmt.Errorf("%s: server counted %d, in-process replay %d", c.series, int64(w), c.got)
		}
		logf("%s: %s = %d over the wire and in process", p.name, c.series, c.got)
	}
	return nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes is each span name's per-span self times (duration minus the
// time its children cover), ns.
type layerTimes map[string][]float64

func selfTimes(spans []span) layerTimes {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := layerTimes{}
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[i]))
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio divides, reporting 0 when the base is 0: the workload ran no such
// operation.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func p50(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// perLayer assembles the per-layer metrics. Every timing here is measured
// on every workload; a count or ratio of work a workload does not do (no
// pattern queries, no watches) reads 0.
func perLayer(p *plan, wr *wireRun, rp *replica, layers layerTimes, tt *twinTimes) map[string]metric {
	d := func(series string) float64 { return wr.promEnd[series] - wr.promStart[series] }
	samples := d("stardust_ingest_samples_total")
	inserts := d("stardust_index_inserts_total")
	nQueries := func(class string) float64 { return float64(len(wr.queryLat[class])) }
	patQueries := d(`stardust_query_total{class="pattern"}`) - nQueries("nearest")
	corrRounds := d(`stardust_query_total{class="correlation"}`) - nQueries("lagged")
	frameN := float64(framesSize(p))
	evals := make([]float64, 0, len(layers[spPush]))
	for i := range layers[spPush] {
		evals = append(evals, (layers[spPush][i]-layers[spIngest][i])/frameN)
	}
	// Global Correlations and FindPattern calls made by watches, per
	// synchronized evaluation tick (one per round): the ad hoc queries the
	// run itself sent are taken out.
	global := d(`stardust_query_total{class="correlation"}`) + d(`stardust_query_total{class="pattern"}`)
	for _, c := range []string{"pattern", "nearest", "correlation", "lagged"} {
		global -= nQueries(c)
	}
	layerSum := p50(layers[spAdmit]) + p50(layers[spWAL]) + p50(layers[spSummary]) + p50(evals)*frameN
	return map[string]metric{
		"client.ingest_ack_p99_us":              {quantile(wr.frameLat, 0.99), "us"},
		"client.ingest_samples_per_s":           {median(wr.roundRate), "samples/s"},
		"transport.overhead_us":                 {median(wr.frameLat) - p50(rp.frameUs), "us"},
		"wire.bytes_per_sample":                 {ratio(d("stardust_net_bytes_in_total"), d("stardust_net_samples_total")), "bytes"},
		"resilience.admit_ns":                   {p50(layers[spAdmit]) / frameN, "ns"},
		"wal.append_ns_per_record":              {p50(layers[spWAL]) / frameN, "ns"},
		"wal.bytes_per_sample":                  {ratio(d("stardust_wal_appended_bytes_total"), samples), "bytes"},
		"core.append_ns_per_sample":             {p50(tt.appendNs), "ns"},
		"core.seal_tick_ns":                     {p50(tt.sealNs), "ns"},
		"rstar.inserts_per_ksample":             {1000 * ratio(inserts, samples), "count"},
		"rstar.node_writes_per_insert":          {ratio(d("stardust_index_node_writes_total"), inserts), "count"},
		"rstar.splits_per_kinsert":              {1000 * ratio(d("stardust_index_splits_total"), inserts), "count"},
		"rstar.reinserts_per_kinsert":           {1000 * ratio(d("stardust_index_reinserts_total"), inserts), "count"},
		"rstar.node_reads_per_search":           {ratio(d("stardust_index_node_reads_total"), d("stardust_index_searches_total")), "count"},
		"watch.evaluate_ns_per_sample":          {p50(evals), "ns"},
		"watch.global_rounds_per_tick":          {ratio(global, float64(len(p.roundEnd))), "count"},
		"watch.events":                          {d("stardust_watch_events_fired_total") + d("stardust_watch_events_cleared_total"), "count"},
		"core.query_ns":                         {p50(rp.roundQuery), "ns"},
		"core.pattern.candidates_per_query":     {ratio(d(`stardust_query_candidates_total{class="pattern"}`), patQueries), "count"},
		"core.pattern.pruning_power":            {ratio(d(`stardust_query_verified_total{class="pattern"}`), d(`stardust_query_candidates_total{class="pattern"}`)), "ratio"},
		"core.pattern.node_reads_per_query":     {p50(rp.patReads), "count"},
		"core.correlation.candidates_per_round": {ratio(d(`stardust_query_candidates_total{class="correlation"}`), corrRounds), "count"},
		"core.correlation.pruning_power":        {ratio(d(`stardust_query_verified_total{class="correlation"}`), d(`stardust_query_candidates_total{class="correlation"}`)), "ratio"},
		"core.knn.true_share":                   {ratio(float64(p.model.knnTrue), float64(p.model.knnAsked)), "ratio"},
		"core.parallel.fanned_rounds":           {d("stardust_parallel_rounds_total"), "count"},
		"core.parallel.inline_rounds":           {d("stardust_parallel_serial_rounds_total"), "count"},
		"server.http_overhead_us":               {median(wr.roundQuery)*1e3 - p50(rp.roundQuery)/1e3, "us"},
		"spec.install_ms":                       {rp.installMs, "ms"},
		"persist.checkpoint_s":                  {wr.checkS, "s"},
		"persist.snapshot_ns":                   {p50(rp.snapNs), "ns"},
		"persist.snapshot_bytes":                {float64(wr.snapBytes), "bytes"},
		"recover.restart_s":                     {wr.recoverS, "s"},
		"recover.replay_records":                {wr.replayRecs, "count"},
		"recover.replay_ns_per_record":          {ratio(wr.replayMs*1e6, wr.replayRecs), "ns"},
		"go.allocs_per_sample":                  {ratio(float64(rp.mem.Mallocs), float64(rp.samples)), "count"},
		"go.alloc_bytes_per_sample":             {ratio(float64(rp.mem.TotalAlloc), float64(rp.samples)), "bytes"},
		"go.gc_cycles_per_ksample":              {1000 * ratio(float64(rp.mem.NumGC), float64(rp.samples)), "count"},
		"trace.residual_us":                     {median(wr.frameLat) - layerSum/1e3, "us"},
	}
}

// framesSize is the sample count of the plan's measured frames (all
// measured frames of a workload have the same size).
func framesSize(p *plan) int {
	for _, o := range p.measured {
		if o.kind == opFrame {
			return o.hi - o.lo
		}
	}
	return 1
}

// report prints the layer breakdown to standard error.
func report(p *plan, wr *wireRun, rp *replica, layers layerTimes, m map[string]metric, untraced, traced time.Duration, spanPath string) {
	logf("%s: traced replay, per frame of %d samples (median self time over %d frames):", p.name, framesSize(p), len(layers[spFrame]))
	var names []string
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		logf("  %-26s %10.1f µs   total %9.1f ms", n, p50(layers[n])/1e3, sum(layers[n])/1e6)
	}
	logf("  client-observed ack p50 %.1f µs; in-process IngestBatch p50 %.1f µs; transport and server overhead %.1f µs",
		median(wr.frameLat), p50(rp.frameUs), m["transport.overhead_us"].Value)
	logf("  residual (client ack − layer sum) %.1f µs; tracing overhead %.1f%% (%.2fs untraced, %.2fs traced)",
		m["trace.residual_us"].Value, 100*m["trace.overhead"].Value, untraced.Seconds(), traced.Seconds())
	for _, c := range []string{"aggregate", "pattern", "nearest", "correlation", "lagged"} {
		if xs := wr.queryLat[c]; len(xs) > 0 {
			logf("  %s queries: client p50 %.3f ms, in process p50 %.3f ms", c, median(xs), p50(rp.queryNs[c])/1e6)
		}
	}
	if rp.installMs > 0 {
		logf("  spec install (tenant registry Load): %.2f ms", rp.installMs)
	}
	logf("  spans: %s", spanPath)
}
