package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"stardust"
	"stardust/client"
)

type opKind uint8

const (
	opFrame      opKind = iota // one IngestBatch over TCP
	opQuery                    // one ad hoc HTTP query, checked against the model
	opDrain                    // GET /events?since=cursor
	opCheckpoint               // POST /snapshot
)

// query is one ad hoc query. class is one of aggregate, pattern, nearest,
// correlation, lagged.
type query struct {
	class  string
	stream int
	window int
	vec    []float64
	radius float64
	k      int
	level  int
	lag    int
}

// op is one closed-loop client operation. A frame carries
// data[stream][lo:hi].
type op struct {
	kind   opKind
	stream int
	lo, hi int
	q      *query
}

// plan is one workload run, fixed entirely by the seed and the run
// length: the server configuration, the inputs, and the operation
// sequence. The same plan drives the wire run and the in-process replay.
type plan struct {
	name string
	// args are the server's summary flags; cfg is the identical
	// configuration for the in-process replay.
	args []string
	cfg  stardust.Config
	spec string // monitor spec source ("" for none)
	data [][]float64
	// prefill runs during set-up; measured is grouped into rounds, each
	// ending with roundEnd[i] = index one past its last op, and holds one
	// checkpoint op three quarters of the way through.
	prefill  []op
	measured []op
	roundEnd []int
	// sentinel is the stream fed input that does not depend on the seed
	// and whose aggregate watches are firing at the crash; after the
	// restart one more frame goes to it to check that no alarm is
	// delivered twice (-1: no such check).
	sentinel int
	// checkEvents compares every event the server delivered before the
	// crash with the events derived from the inputs; it returns how many
	// comparisons were excluded for lying within float tolerance of a
	// threshold or radius.
	checkEvents func(evs []event, acked []int) (excluded int, err error)
	// model answers ad hoc queries from the inputs.
	model *model
}

// event is one GET /events entry.
type event struct {
	Seq     int     `json:"seq"`
	Kind    int     `json:"Kind"`
	WatchID int     `json:"WatchID"`
	Stream  int     `json:"Stream"`
	StreamB int     `json:"StreamB"`
	Time    int64   `json:"Time"`
	TimeB   int64   `json:"TimeB"`
	Value   float64 `json:"Value"`
	Watch   string  `json:"watch"`
}

// checkpointRepeats and restartRepeats set how many checkpoints and
// crash-restarts each run times; their medians are reported.
const (
	checkpointRepeats = 9
	restartRepeats    = 5
)

const (
	evAggregate        = int(stardust.EventAggregate)
	evAggregateCleared = int(stardust.EventAggregateCleared)
	evPattern          = int(stardust.EventPattern)
	evCorrelation      = int(stardust.EventCorrelation)
)

// wireRun holds what the closed loop observed.
type wireRun struct {
	frameLat  []float64 // measured frame acks, µs
	roundRate []float64 // each measured round's samples over the time its frames waited for acks, per second
	queryLat  map[string][]float64
	// roundQuery is each measured round's mean ad hoc query latency, ms:
	// pooling per round keeps the median off the gaps between query
	// classes of different cost.
	roundQuery  []float64
	allQueryLat []float64 // measured queries in order, ms
	setupS      float64
	checkS      float64
	recoverS    float64
	peakRSS     float64
	snapBytes   int64
	replayRecs  float64
	replayMs    float64
	promStart   map[string]float64
	promEnd     map[string]float64
	measuredN   int // samples ingested in the measured phase
	events      int // events delivered before the crash
	excluded    int
	attempted   int64
	failed      int64
}

type runner struct {
	p      *plan
	dir    string
	bin    string
	srv    *serverProc
	tc     *client.Client
	hc     *http.Client
	acked  []int
	events []event
	cursor int
	wr     *wireRun
}

func (r *runner) serverArgs() []string {
	args := append([]string(nil), r.p.args...)
	// Every workload runs durable: the write-ahead log at the default
	// interval fsync, checkpoints only when the run asks for one.
	args = append(args, "-snapshot", filepath.Join(r.dir, "state.snap"), "-snapshot-every", "0",
		"-wal-dir", filepath.Join(r.dir, "wal"), "-fsync", "interval")
	if r.p.spec != "" {
		args = append(args, "-spec-file", filepath.Join(r.dir, "bench.spec"))
	}
	return args
}

func (r *runner) connect() error {
	tc, err := client.New(client.WithTCP(r.srv.tcpAddr), client.WithTimeout(60*time.Second))
	if err != nil {
		return err
	}
	r.tc = tc
	r.hc = newHTTPClient()
	return nil
}

func (r *runner) disconnect() {
	if r.tc != nil {
		r.tc.Close()
		r.tc = nil
	}
	if r.hc != nil {
		r.hc.CloseIdleConnections()
	}
}

// run executes the plan against a live server, then (when traced) the
// in-process replay, and assembles the result.
func run(p *plan, bin, dir, out string, seed int64, traced bool) (*result, error) {
	r := &runner{p: p, dir: dir, bin: bin, acked: make([]int, len(p.data)),
		wr: &wireRun{queryLat: make(map[string][]float64)}}
	if p.spec != "" {
		if err := os.WriteFile(filepath.Join(dir, "bench.spec"), []byte(p.spec), 0o644); err != nil {
			return nil, err
		}
	}
	tPlanned := time.Now()
	srv, err := startServer(bin, r.serverArgs(), filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, err
	}
	r.srv = srv
	tStarted := time.Now()
	defer func() {
		r.disconnect()
		if r.srv != nil {
			r.srv.stop()
		}
	}()
	if err := r.connect(); err != nil {
		return nil, err
	}
	for i := range p.prefill {
		if err := r.do(&p.prefill[i], false); err != nil {
			return nil, fmt.Errorf("prefill op %d: %w", i, err)
		}
	}
	if r.wr.promStart, err = r.prom(); err != nil {
		return nil, err
	}
	r.wr.setupS = time.Since(processStart).Seconds()
	logf("%s: set-up: inputs %.3fs, server start %.3fs, prefill %.3fs", p.name,
		tPlanned.Sub(processStart).Seconds(), tStarted.Sub(tPlanned).Seconds(), time.Since(tStarted).Seconds())

	start := 0
	tMeasured := time.Now()
	for _, end := range p.roundEnd {
		n := 0
		busy := 0.0 // µs the round's frames waited for acks
		q0 := len(r.wr.allQueryLat)
		for i := start; i < end; i++ {
			o := &p.measured[i]
			if err := r.do(o, true); err != nil {
				return nil, fmt.Errorf("measured op %d: %w", i, err)
			}
			if o.kind == opFrame {
				n += o.hi - o.lo
				busy += r.wr.frameLat[len(r.wr.frameLat)-1]
			}
		}
		r.wr.roundRate = append(r.wr.roundRate, float64(n)/busy*1e6)
		if qs := r.wr.allQueryLat[q0:]; len(qs) > 0 {
			r.wr.roundQuery = append(r.wr.roundQuery, sum(qs)/float64(len(qs)))
		}
		r.wr.measuredN += n
		start = end
	}
	measuredS := time.Since(tMeasured).Seconds()
	if r.wr.promEnd, err = r.prom(); err != nil {
		return nil, err
	}
	if err := r.drain(); err != nil {
		return nil, err
	}
	excluded, err := p.checkEvents(r.events, r.acked)
	if err != nil {
		return nil, fmt.Errorf("event check: %w", err)
	}
	r.wr.excluded += excluded
	r.wr.events = len(r.events)
	if r.wr.peakRSS, err = r.srv.peakRSSMiB(); err != nil {
		return nil, err
	}
	if fi, err := os.Stat(filepath.Join(dir, "state.snap")); err == nil {
		r.wr.snapBytes = fi.Size()
	}
	if err := r.crashAndRecover(); err != nil {
		return nil, fmt.Errorf("crash recovery: %w", err)
	}
	r.disconnect()
	r.srv.stop()
	r.srv = nil
	logf("%s: %d ops, %d failed, %d comparisons excluded as within float tolerance of a threshold or radius",
		p.name, r.wr.attempted, r.wr.failed, r.wr.excluded)
	logf("%s: set-up %.2fs, measured %d rounds (%d samples) in %.2fs, %d events, checkpoint %.3fs, restart %.3fs (replayed %.0f records in %.1fms)",
		p.name, r.wr.setupS, len(p.roundEnd), r.wr.measuredN, measuredS, r.wr.events, r.wr.checkS, r.wr.recoverS, r.wr.replayRecs, r.wr.replayMs)

	for _, c := range []string{"aggregate", "pattern", "nearest", "correlation", "lagged"} {
		if xs := r.wr.queryLat[c]; len(xs) > 0 {
			logf("%s: %s queries: %d, p50 %.3f ms", p.name, c, len(xs), median(xs))
		}
	}
	if m := p.model; m.knnAsked > 0 {
		logf("%s: nearest: %d of %d returned matches are among the true k nearest; %d of %d answers exact", p.name, m.knnTrue, m.knnAsked, m.knnExact, m.knnAnswers)
	}
	if traced {
		return traceResult(p, r.wr, dir, out, seed)
	}
	return endToEnd(r.wr)
}

func (r *runner) prom() (map[string]float64, error) {
	r.wr.attempted++
	return promCounters(r.hc, "http://"+r.srv.httpAddr)
}

// do executes one operation; measured operations are timed.
func (r *runner) do(o *op, measured bool) error {
	r.wr.attempted++
	switch o.kind {
	case opFrame:
		vs := r.p.data[o.stream][o.lo:o.hi]
		if r.acked[o.stream] != o.lo {
			return fmt.Errorf("frame for stream %d starts at %d, clock is %d", o.stream, o.lo, r.acked[o.stream])
		}
		t0 := time.Now()
		err := r.tc.IngestBatch(o.stream, vs)
		us := float64(time.Since(t0).Nanoseconds()) / 1e3
		if err != nil {
			return fmt.Errorf("ingest stream %d [%d,%d): %w", o.stream, o.lo, o.hi, err)
		}
		r.acked[o.stream] = o.hi
		if measured {
			r.wr.frameLat = append(r.wr.frameLat, us)
		}
	case opQuery:
		t0 := time.Now()
		ans, err := r.query(o.q)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil {
			return err
		}
		if measured {
			r.wr.queryLat[o.q.class] = append(r.wr.queryLat[o.q.class], ms)
			r.wr.allQueryLat = append(r.wr.allQueryLat, ms)
		}
		ex, err := r.p.model.check(o.q, r.acked, ans)
		if err != nil {
			return fmt.Errorf("%s query check: %w", o.q.class, err)
		}
		r.wr.excluded += ex
	case opDrain:
		return r.drain()
	case opCheckpoint:
		// One checkpoint is a single fsync-bound operation; the figure is
		// the median of a few taken back to back on the same state.
		var ts []float64
		for i := 0; i < checkpointRepeats; i++ {
			t0 := time.Now()
			if err := httpJSON(r.hc, "POST", r.srv.url("/snapshot"), nil, nil); err != nil {
				return err
			}
			ts = append(ts, time.Since(t0).Seconds())
		}
		r.wr.attempted += checkpointRepeats - 1
		r.wr.checkS = median(ts)
	}
	return nil
}

// drain collects every event delivered since the last drain and checks
// that none was lost to the server's bounded buffer. A server without a
// spec runs no watcher and has no events.
func (r *runner) drain() error {
	if r.p.spec == "" {
		return nil
	}
	var resp struct {
		Next   int     `json:"next"`
		Events []event `json:"events"`
	}
	if err := httpJSON(r.hc, "GET", r.srv.url("/events?since="+strconv.Itoa(r.cursor)), nil, &resp); err != nil {
		return err
	}
	for i, e := range resp.Events {
		if e.Seq != r.cursor+i {
			return fmt.Errorf("event buffer overran: expected seq %d, got %d", r.cursor+i, e.Seq)
		}
	}
	r.events = append(r.events, resp.Events...)
	r.cursor = resp.Next
	return nil
}

// crashAndRecover kills the server with SIGKILL and restarts it on the
// same files, restartRepeats times, checking after each restart that
// every acknowledged sample survived; the figure is the median restart.
// Then it checks that no alarm firing before the crash is delivered
// again.
func (r *runner) crashAndRecover() error {
	var ts []float64
	for i := 0; i < restartRepeats; i++ {
		r.disconnect()
		r.srv.kill()
		r.srv = nil
		r.wr.attempted++
		t0 := time.Now()
		srv, err := startServer(r.bin, r.serverArgs(), filepath.Join(r.dir, "server.log"))
		if err != nil {
			return err
		}
		ts = append(ts, time.Since(t0).Seconds())
		r.srv = srv
		if err := r.connect(); err != nil {
			return err
		}
		if err := r.checkClocks(); err != nil {
			return err
		}
	}
	r.wr.recoverS = median(ts)
	if r.p.sentinel < 0 {
		return nil
	}
	return r.checkNoRepeatedAlarm()
}

// checkClocks records the replay the restart ran and requires every
// stream's clock to equal the samples acknowledged for it.
func (r *runner) checkClocks() error {
	var ready struct {
		Replay struct {
			Records    float64 `json:"records"`
			DurationMs float64 `json:"duration_ms"`
		} `json:"replay"`
	}
	r.wr.attempted++
	if err := httpJSON(r.hc, "GET", r.srv.url("/readyz"), nil, &ready); err != nil {
		return err
	}
	r.wr.replayRecs, r.wr.replayMs = ready.Replay.Records, ready.Replay.DurationMs
	for s := range r.acked {
		var now struct {
			Result int64 `json:"result"`
		}
		r.wr.attempted++
		if err := httpJSON(r.hc, "POST", r.srv.url("/cluster/q"), map[string]any{"kind": "now", "stream": s}, &now); err != nil {
			return err
		}
		if now.Result != int64(r.acked[s])-1 {
			return fmt.Errorf("stream %d: clock after restart %d, acknowledged samples %d", s, now.Result+1, r.acked[s])
		}
	}
	return nil
}

// checkNoRepeatedAlarm sends one more above-threshold frame to the
// sentinel, whose watches were firing when the server died: it must raise
// no new alarm.
func (r *runner) checkNoRepeatedAlarm() error {
	s := r.p.sentinel
	vs := make([]float64, r.p.cfg.W)
	for i := range vs {
		vs[i] = r.p.data[s][0]
	}
	r.wr.attempted++
	if err := r.tc.IngestBatch(s, vs); err != nil {
		return err
	}
	r.cursor = 0
	r.events = nil
	if err := r.drain(); err != nil {
		return err
	}
	repeated := 0
	for _, e := range r.events {
		if e.Stream != s || e.Kind != evAggregate {
			return fmt.Errorf("unexpected event after restart: %+v", e)
		}
		repeated++
	}
	if repeated > 0 {
		// A fault in the server, not in the run: the restarted watcher
		// does not know the alarms were already delivered. The sentinel's
		// input does not depend on the seed, so this fails identically on
		// every run and is counted rather than fatal.
		r.wr.failed++
		logf("%s: %d alarms firing before the crash were delivered again after the restart", r.p.name, repeated)
	}
	return nil
}
