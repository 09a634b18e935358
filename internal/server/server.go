// Package server exposes a Monitor over HTTP: JSON ingestion and the three
// query classes, plus introspection and durable snapshots. Its backend is
// concurrency-safe (a SafeWatcher, or a ShardedMonitor), so ingestion and
// queries may arrive concurrently.
//
// Endpoints:
//
//	POST /ingest        {"stream": 0, "values": [1, 2, 3]}            — append to one stream
//	POST /ingest        {"rows": [[s0v, s1v, ...], ...]}              — synchronized arrivals
//	GET  /aggregate     ?stream=0&window=40&threshold=300             — one Algorithm-2 check
//	POST /pattern       {"query": [...], "radius": 0.05}              — variable-length similarity
//	POST /nearest       {"query": [...], "k": 3}                      — k-nearest-neighbor patterns
//	GET  /correlations  ?level=3&radius=0.5[&lag=32]                  — correlated pairs
//	POST /cluster/q     {"kind": "pattern"|"correlations"|...}        — coordinator RPC: native result structs for a router's scatter-gather merge
//	GET  /stats                                                       — summary space snapshot
//	GET  /statz                                                       — operational status: readiness, WAL counters, recovery replay
//	GET  /healthz                                                     — liveness (always 200 while the process serves)
//	GET  /readyz                                                      — readiness (503 while shutting down; reports the recovery replay)
//	POST /snapshot                                                    — persist state to the snapshot path (checkpoints: trims the WAL)
//	POST /watch         {"type":"aggregate"|"pattern"|"correlation"}  — register a standing query (watcher-backed servers)
//	GET  /events        ?since=N[&tenant=name]                        — drain standing-query events (watcher-backed servers)
//	GET  /specz         [?name=unit]                                  — list loaded monitor specs (tenant-tier servers)
//	POST /specz         {"name": "unit", "source": "watch ..."}       — load or atomically swap a named spec
//	DELETE /specz       ?name=unit                                    — unload a spec and all its watches
//	GET  /tenantz                                                     — list tenants: stream slices, quotas, watch counts
//	POST /tenantz       {"name": "acme", "streams": 8, ...}           — admit a tenant (allocates a stream slice)
//	DELETE /tenantz     ?name=acme                                    — retire a tenant (refused while specs watch it)
//	GET  /metricsz                                                    — Prometheus text metrics (ingestion, index, query classes)
//	GET  /debug/pprof/                                                — runtime profiles (heap, goroutine, 30s CPU via /debug/pprof/profile)
//	GET  /repl/status                                                 — retained WAL range (primaries, via AttachPrimary)
//	GET  /repl/snapshot                                               — bootstrap snapshot with LSN watermark header (primaries)
//	GET  /wal           ?from=N[&follow=1]                            — raw WAL frame stream for followers (primaries)
//
// A server running as a read replica (SetFollower) rejects POST /ingest
// with 403 — writes belong on the primary — while every query endpoint
// serves normally, and /readyz//statz report the replica's lag.
//
// Errors are JSON {"error": "..."} with a 4xx/5xx status. Ingestion routes
// through the monitor's resilience guard, so malformed samples (NaN, Inf,
// out-of-range stream ids) are 4xx responses, never process-killing
// panics; a recovery middleware converts any residual handler panic into a
// JSON 500. Serve runs the full lifecycle: request timeouts, a periodic
// auto-snapshot loop, and graceful shutdown with a final snapshot.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stardust"
	"stardust/internal/fault"
	"stardust/internal/obs"
	"stardust/internal/replication"
	"stardust/internal/tenant"
	"stardust/internal/wire"
)

// Server routes HTTP requests to a stardust.Interface backend.
type Server struct {
	mon  stardust.Interface
	mux  *http.ServeMux
	path string // snapshot file path ("" disables POST /snapshot)

	ready  atomic.Bool // false while shutting down: /readyz returns 503
	snapMu sync.Mutex  // serializes snapshot file writes

	replay *stardust.ReplayStats // WAL replay that built mon (nil: none ran)

	watcher *stardust.SafeWatcher // non-nil when standing queries are enabled
	evMu    sync.Mutex
	events  []annotatedEvent
	evBase  int // sequence number of events[0]

	tenants       *tenant.Registry   // non-nil when the multi-tenant tier is enabled
	tenantMetrics *obs.TenantMetrics // merged into /metricsz when tenants are wired
	specForward   http.Handler       // registry-less /specz//tenantz delegate (cluster router)

	follower       *replication.Follower // non-nil on a read replica: ingest is 403
	replMetrics    *obs.ReplMetrics      // merged into /metricsz when replication is wired
	netMetrics     *obs.NetMetrics       // merged into /metricsz when the TCP tier is mounted
	clusterMetrics *obs.ClusterMetrics   // merged into /metricsz on a cluster router

	// Replication-primary state. The /repl/* and /wal routes are mounted
	// unconditionally at construction and dispatch through this pointer,
	// because http.ServeMux must not be mutated once requests are in
	// flight — promotion swaps the pointer, not the routes.
	primary atomic.Pointer[replication.Primary]
	retain  uint64 // RetainRecords for the primary (set before attach/promote)

	promoteMu sync.Mutex  // serializes Promote and makes it once-only
	promoted  atomic.Bool // true once this replica has become the primary

	faultInj *fault.Injector // non-nil when fault injection is armed
}

// eventBuffer bounds the retained event backlog.
const eventBuffer = 4096

// Option configures New. Options compose left to right; the zero
// configuration (no options) serves a backend with persistence disabled.
type Option func(*Server)

// WithSnapshotPath enables POST /snapshot, the auto-snapshot loop, and
// the final snapshot on shutdown, all writing to path. An empty path
// leaves persistence disabled.
func WithSnapshotPath(path string) Option {
	return func(s *Server) { s.path = path }
}

// New builds a server around the monitor. Any stardust.Interface works as
// the backend. A *stardust.SafeWatcher (the usual backend) also gets the
// standing-query surface: the server claims its event sink, triggered
// events accumulate in a bounded buffer served by GET /events, and POST
// /watch registers new watches. Other backends — a ShardedMonitor, or
// the router's cluster coordinator — answer those two endpoints with 501.
func New(mon stardust.Interface, opts ...Option) *Server {
	s := &Server{mon: mon, mux: http.NewServeMux()}
	if sw, ok := mon.(*stardust.SafeWatcher); ok {
		s.watcher = sw
		sw.SetEventSink(s.appendEvents)
	}
	for _, opt := range opts {
		opt(s)
	}
	s.ready.Store(true)
	s.mux.HandleFunc("POST /ingest", s.handleIngest)
	s.mux.HandleFunc("GET /aggregate", s.handleAggregate)
	s.mux.HandleFunc("POST /pattern", s.handlePattern)
	s.mux.HandleFunc("POST /nearest", s.handleNearest)
	s.mux.HandleFunc("GET /correlations", s.handleCorrelations)
	s.mux.HandleFunc("POST /cluster/q", s.handleClusterQuery)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /statz", s.handleStatz)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("POST /snapshot", s.handleSnapshot)
	s.mux.HandleFunc("POST /watch", s.handleWatch)
	s.mux.HandleFunc("GET /events", s.handleEvents)
	s.mux.HandleFunc("GET /metricsz", s.handleMetrics)
	// Spec and tenant admin. Mounted unconditionally like /watch: they
	// answer 501 until WithTenants wires a registry behind them.
	s.mux.HandleFunc("GET /specz", s.handleSpecList)
	s.mux.HandleFunc("POST /specz", s.handleSpecLoad)
	s.mux.HandleFunc("DELETE /specz", s.handleSpecUnload)
	s.mux.HandleFunc("GET /tenantz", s.handleTenantList)
	s.mux.HandleFunc("POST /tenantz", s.handleTenantAdd)
	s.mux.HandleFunc("DELETE /tenantz", s.handleTenantRemove)
	// Replication endpoints are mounted up front and return 503 until
	// AttachPrimary (or a promotion) installs a primary behind them; the
	// mux itself is never mutated after requests start flowing.
	s.mux.HandleFunc("GET /repl/status", s.handleReplStatus)
	s.mux.HandleFunc("GET /repl/snapshot", s.handleReplSnapshot)
	s.mux.HandleFunc("GET /wal", s.handleReplWAL)
	s.mux.HandleFunc("POST /repl/promote", s.handlePromote)
	// Runtime profiling. CPU profiles (?seconds=N) must finish inside the
	// server's write timeout; keep N below ServeOptions.WriteTimeout.
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// annotatedEvent is one buffered event plus its spec attribution (empty
// for watches registered through the plain API, so their JSON encoding
// is unchanged).
type annotatedEvent struct {
	stardust.Event
	Tenant string `json:"tenant,omitempty"`
	Watch  string `json:"watch,omitempty"`
}

// appendEvents adds triggered events to the bounded buffer, attributing
// each to its tenant and spec watch when the tenant tier is wired.
// Trigger messages (on_fire/on_clear clauses) are logged here — the
// event stream itself is unchanged by them.
func (s *Server) appendEvents(events []stardust.Event) {
	annotated := make([]annotatedEvent, len(events))
	for i, e := range events {
		annotated[i] = annotatedEvent{Event: e}
		if s.tenants == nil {
			continue
		}
		note := s.tenants.Annotate(e)
		annotated[i].Tenant = note.Tenant
		annotated[i].Watch = note.Watch
		if note.Message != "" {
			log.Printf("trigger: %s (spec %s, watch %s, tenant %q, stream %d, t=%d)",
				note.Message, note.Spec, note.Watch, note.Tenant, e.Stream, e.Time)
		}
	}
	s.evMu.Lock()
	defer s.evMu.Unlock()
	s.events = append(s.events, annotated...)
	if drop := len(s.events) - eventBuffer; drop > 0 {
		s.events = s.events[drop:]
		s.evBase += drop
	}
}

// ServeHTTP implements http.Handler. A recovery middleware converts
// handler panics into JSON 500 responses so one poisoned request cannot
// kill the monitoring process.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			log.Printf("server: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
			// Best effort: if the handler already wrote a header this is a
			// no-op on the status, but the connection still survives.
			writeErr(w, http.StatusInternalServerError, "internal error: %v", rec)
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// handleHealthz is the liveness probe: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// SetReplayStats records the WAL replay that produced the backend, so
// /readyz and /statz can report how the process came up. Call before
// Serve.
func (s *Server) SetReplayStats(stats stardust.ReplayStats) {
	s.replay = &stats
}

// replayInfo renders the recorded replay for JSON endpoints.
func (s *Server) replayInfo() map[string]any {
	if s.replay == nil {
		return nil
	}
	return map[string]any{
		"records":     s.replay.Records,
		"samples":     s.replay.Samples,
		"bytes":       s.replay.Bytes,
		"segments":    s.replay.Segments,
		"torn_bytes":  s.replay.TornBytes,
		"duration_ms": float64(s.replay.Duration) / float64(time.Millisecond),
	}
}

// handleReadyz is the readiness probe: 503 once shutdown has begun so load
// balancers drain before the listener closes. When the backend was built
// by a WAL replay, the response reports it — a restart that replayed a
// large log is visibly distinguishable from a cold start.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "shutting down"})
		return
	}
	resp := map[string]any{"status": "ready"}
	if s.mon.Metrics().WAL.Degraded == 1 {
		// Still 200: the monitor serves and ingests, but in memory only —
		// operators alert on this field (and the stardust_wal_degraded
		// gauge) rather than on probe failures.
		resp["status"] = "degraded"
		resp["wal_degraded"] = true
	}
	if info := s.replayInfo(); info != nil {
		resp["replay"] = info
	}
	if info := s.replicationInfo(); info != nil {
		resp["replication"] = info
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleStatz is the operational status endpoint: readiness, stream
// count, the WAL replay that built this process (when any), and the live
// WAL counters from the metrics snapshot — the at-a-glance durability
// view, complementing the Prometheus series on /metricsz.
func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	wal := s.mon.Metrics().WAL
	resp := map[string]any{
		"ready":   s.ready.Load(),
		"streams": s.mon.NumStreams(),
		"wal": map[string]any{
			"appends":          wal.Appends,
			"appended_bytes":   wal.AppendedBytes,
			"fsyncs":           wal.Fsyncs,
			"rotations":        wal.Rotations,
			"segments_live":    wal.SegmentsLive,
			"segments_trimmed": wal.SegmentsTrimmed,
			"replayed_records": wal.ReplayedRecords,
			"replayed_samples": wal.ReplayedSamples,
			"degraded":         wal.Degraded == 1,
			"dropped_appends":  wal.DroppedAppends,
			"write_retries":    wal.WriteRetries,
			"reattaches":       wal.Reattaches,
		},
	}
	if info := s.replayInfo(); info != nil {
		resp["replay"] = info
	}
	if info := s.replicationInfo(); info != nil {
		resp["replication"] = info
	}
	if s.faultInj != nil {
		c := s.faultInj.Counters()
		resp["fault"] = map[string]any{
			"rules_armed": c.RulesArmed,
			"evals":       c.Evals,
			"injected":    c.Injected,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// ingestRequest accepts either per-stream values or synchronized rows.
// A tenant name routes stream+values through the tenant registry, which
// translates the tenant-local stream id and enforces the quota set.
type ingestRequest struct {
	Stream *int        `json:"stream,omitempty"`
	Values []float64   `json:"values,omitempty"`
	Rows   [][]float64 `json:"rows,omitempty"`
	Tenant string      `json:"tenant,omitempty"`
}

// ingestStatus maps the guard's typed errors to HTTP statuses: malformed
// input is the client's fault (400), quarantine is a stateful refusal
// (409), anything else is a server error.
func ingestStatus(err error) int {
	switch {
	case errors.Is(err, stardust.ErrStreamRange), errors.Is(err, stardust.ErrBadValue):
		return http.StatusBadRequest
	case errors.Is(err, stardust.ErrQuarantined):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.IsReadOnly() {
		writeJSON(w, http.StatusForbidden, map[string]any{
			"error": "read-only replica: ingest on the primary",
			"code":  wire.CodeReadOnly,
		})
		return
	}
	var req ingestRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding body: %v", err)
		return
	}
	if req.Tenant != "" {
		s.handleTenantIngest(w, req)
		return
	}
	switch {
	case len(req.Rows) > 0:
		for i, row := range req.Rows {
			if len(row) != s.mon.NumStreams() {
				writeErr(w, http.StatusBadRequest, "row %d has %d values for %d streams", i, len(row), s.mon.NumStreams())
				return
			}
			if err := s.mon.IngestAll(row); err != nil {
				// Earlier rows (and repaired streams of this row) are
				// already ingested; report how far we got. The code field
				// is the wire nack code of the typed cause, so the client
				// package maps either transport's rejection identically.
				writeJSON(w, ingestStatus(err), map[string]any{
					"error": err.Error(), "code": wire.CodeFor(err), "rows": i,
				})
				return
			}
		}
		writeJSON(w, http.StatusOK, map[string]int{"rows": len(req.Rows)})
	case req.Stream != nil:
		for i, v := range req.Values {
			if err := s.mon.Ingest(*req.Stream, v); err != nil {
				writeJSON(w, ingestStatus(err), map[string]any{
					"error": err.Error(), "code": wire.CodeFor(err), "values": i,
				})
				return
			}
		}
		writeJSON(w, http.StatusOK, map[string]int{"values": len(req.Values)})
	default:
		writeErr(w, http.StatusBadRequest, "provide either stream+values or rows")
	}
}

// IsReadOnly reports whether this server currently refuses writes: it is
// following a primary and has not been promoted. The TCP transport's
// ReadOnly hook binds here so both ingest surfaces flip together on
// promotion.
func (s *Server) IsReadOnly() bool {
	return s.follower != nil && !s.promoted.Load()
}

// SetNetMetrics registers the binary transport's instrument set so its
// stardust_net_* series are merged into GET /metricsz. Call before Serve.
func (s *Server) SetNetMetrics(nm *obs.NetMetrics) {
	s.netMetrics = nm
}

func intParam(r *http.Request, name string) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing parameter %q", name)
	}
	return strconv.Atoi(raw)
}

func floatParam(r *http.Request, name string) (float64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing parameter %q", name)
	}
	return strconv.ParseFloat(raw, 64)
}

func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	stream, err := intParam(r, "stream")
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	window, err := intParam(r, "window")
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	threshold, err := floatParam(r, "threshold")
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if stream < 0 || stream >= s.mon.NumStreams() {
		writeErr(w, http.StatusBadRequest, "stream %d out of range", stream)
		return
	}
	res, err := s.mon.CheckAggregate(stream, window, threshold)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"bound":     map[string]float64{"lo": res.Bound.Lo, "hi": res.Bound.Hi},
		"candidate": res.Candidate,
		"alarm":     res.Alarm,
		"exact":     res.Exact,
	})
}

type patternRequest struct {
	Query  []float64 `json:"query"`
	Radius float64   `json:"radius"`
}

func (s *Server) handlePattern(w http.ResponseWriter, r *http.Request) {
	var req patternRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding body: %v", err)
		return
	}
	if len(req.Query) == 0 || req.Radius <= 0 {
		writeErr(w, http.StatusBadRequest, "query and positive radius required")
		return
	}
	res, err := s.mon.FindPattern(req.Query, req.Radius)
	partial := errors.Is(err, stardust.ErrPartialResult)
	if err != nil && !partial {
		writeErr(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	resp := map[string]any{
		"candidates": len(res.Candidates),
		"precision":  res.Precision(),
		"matches":    res.Matches,
	}
	if partial {
		resp["partial"] = true
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCorrelations(w http.ResponseWriter, r *http.Request) {
	level, err := intParam(r, "level")
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	radius, err := floatParam(r, "radius")
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if lagRaw := r.URL.Query().Get("lag"); lagRaw != "" {
		lag, err := strconv.Atoi(lagRaw)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad lag: %v", err)
			return
		}
		pairs, err := s.mon.LaggedCorrelations(level, radius, lag)
		partial := errors.Is(err, stardust.ErrPartialResult)
		if err != nil && !partial {
			writeErr(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		resp := map[string]any{"screened": pairs}
		if partial {
			resp["partial"] = true
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	res, err := s.mon.Correlations(level, radius)
	partial := errors.Is(err, stardust.ErrPartialResult)
	if err != nil && !partial {
		writeErr(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	resp := map[string]any{
		"screened":  len(res.Candidates),
		"precision": res.Precision(),
		"pairs":     res.Pairs,
	}
	if partial {
		resp["partial"] = true
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mon.Stats())
}

// handleMetrics serves the observability snapshot in Prometheus text
// exposition format: ingestion counters and append latency, R*-tree node
// accesses, and per-query-class candidates/verified (pruning power).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap := s.mon.Metrics()
	if s.replMetrics != nil {
		snap.Repl = s.replMetrics.Snapshot()
	}
	if s.netMetrics != nil {
		snap.Net = s.netMetrics.Snapshot()
	}
	if s.clusterMetrics != nil {
		snap.Cluster = s.clusterMetrics.Snapshot()
	}
	if s.tenantMetrics != nil {
		snap.Tenant = s.tenantMetrics.Snapshot()
	}
	if s.faultInj != nil {
		c := s.faultInj.Counters()
		snap.Fault = obs.FaultSnapshot{RulesArmed: c.RulesArmed, Evals: c.Evals, Injected: c.Injected}
	}
	if err := obs.WriteProm(w, snap); err != nil {
		log.Printf("server: writing /metricsz: %v", err)
	}
}

// watchRequest registers a standing query.
type watchRequest struct {
	Type          string    `json:"type"` // "aggregate", "pattern" or "correlation"
	Stream        int       `json:"stream"`
	Window        int       `json:"window"`
	Threshold     float64   `json:"threshold"`
	EdgeTriggered *bool     `json:"edge,omitempty"` // default true
	Query         []float64 `json:"query,omitempty"`
	Radius        float64   `json:"radius,omitempty"`
	Level         int       `json:"level,omitempty"`
}

func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	if s.watcher == nil {
		writeErr(w, http.StatusNotImplemented, "standing queries require a watcher-backed server")
		return
	}
	var req watchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding body: %v", err)
		return
	}
	var id int
	var err error
	switch req.Type {
	case "aggregate":
		edge := true
		if req.EdgeTriggered != nil {
			edge = *req.EdgeTriggered
		}
		id, err = s.watcher.WatchAggregate(req.Stream, req.Window, req.Threshold, edge)
	case "pattern":
		id, err = s.watcher.WatchPattern(req.Query, req.Radius)
	case "correlation":
		id, err = s.watcher.WatchCorrelation(req.Level, req.Radius)
	default:
		writeErr(w, http.StatusBadRequest, "unknown watch type %q", req.Type)
		return
	}
	if err != nil {
		// Nonsensical parameters are the client's fault: 400 with the
		// typed nack code, like the ingest path. Anything else (a core
		// rejection the up-front validation cannot see) stays 422.
		status := http.StatusUnprocessableEntity
		if errors.Is(err, stardust.ErrBadWatch) {
			status = http.StatusBadRequest
		}
		writeJSON(w, status, map[string]any{
			"error": err.Error(), "code": wire.CodeFor(err),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"id": id})
}

// handleEvents returns buffered events with sequence numbers; ?since=N
// skips already-consumed ones.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.watcher == nil {
		writeErr(w, http.StatusNotImplemented, "standing queries require a watcher-backed server")
		return
	}
	since := 0
	if raw := r.URL.Query().Get("since"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad since: %v", err)
			return
		}
		since = v
	}
	// ?tenant= narrows the drain to one tenant's attributed events.
	// Sequence numbers stay global, so a filtered consumer's since cursor
	// works unchanged against the unfiltered stream.
	tenantFilter := r.URL.Query().Get("tenant")
	s.evMu.Lock()
	defer s.evMu.Unlock()
	start := since - s.evBase
	if start < 0 {
		start = 0
	}
	if start > len(s.events) {
		start = len(s.events)
	}
	type seqEvent struct {
		Seq int `json:"seq"`
		annotatedEvent
	}
	out := make([]seqEvent, 0, len(s.events)-start)
	for i := start; i < len(s.events); i++ {
		if tenantFilter != "" && s.events[i].Tenant != tenantFilter {
			continue
		}
		out = append(out, seqEvent{Seq: s.evBase + i, annotatedEvent: s.events[i]})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"next":   s.evBase + len(s.events),
		"events": out,
	})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.path == "" {
		writeErr(w, http.StatusNotImplemented, "no snapshot path configured")
		return
	}
	if err := s.SnapshotNow(); err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"path": s.path})
}

// SnapshotNow persists the monitor state to the configured snapshot path
// crash-safely (temp file + fsync + rename, previous snapshot kept as
// .bak). Backends that checkpoint (all monitor flavors do) additionally
// trim write-ahead-log segments the snapshot covers, so the auto-snapshot
// loop bounds WAL growth. Concurrent calls — the HTTP endpoint, the
// auto-snapshot loop and the shutdown path — serialize on an internal
// mutex.
func (s *Server) SnapshotNow() error {
	if s.path == "" {
		return fmt.Errorf("server: no snapshot path configured")
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if c, ok := s.mon.(stardust.Checkpointer); ok {
		return c.Checkpoint(s.path)
	}
	return stardust.WriteSnapshotFile(s.mon, s.path)
}

// ServeOptions tunes the Serve lifecycle. The zero value selects the
// documented defaults.
type ServeOptions struct {
	// SnapshotEvery is the auto-snapshot period; 0 disables the loop.
	// Ignored when no snapshot path is configured.
	SnapshotEvery time.Duration
	// ReadTimeout bounds reading a full request including the body
	// (default 15s).
	ReadTimeout time.Duration
	// WriteTimeout bounds writing the response (default 30s).
	WriteTimeout time.Duration
	// ShutdownGrace bounds connection draining after ctx is cancelled
	// (default 10s).
	ShutdownGrace time.Duration
}

func (o ServeOptions) withDefaults() ServeOptions {
	if o.ReadTimeout == 0 {
		o.ReadTimeout = 15 * time.Second
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = 30 * time.Second
	}
	if o.ShutdownGrace == 0 {
		o.ShutdownGrace = 10 * time.Second
	}
	return o
}

// Serve runs the server's full lifecycle on the listener until ctx is
// cancelled: requests are bounded by read/write timeouts, state is
// auto-snapshotted every opts.SnapshotEvery, and on cancellation the
// server flips /readyz to 503, drains in-flight connections, and writes a
// final snapshot before returning. The caller owns the listener's
// address; pass a net.Listener from net.Listen (or httptest).
func (s *Server) Serve(ctx context.Context, ln net.Listener, opts ServeOptions) error {
	opts = opts.withDefaults()
	httpSrv := &http.Server{
		Handler:           s,
		ReadTimeout:       opts.ReadTimeout,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      opts.WriteTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	// Auto-snapshot loop: losing at most SnapshotEvery of stream history
	// on a hard crash is the durability contract.
	snapDone := make(chan struct{})
	snapCtx, stopSnaps := context.WithCancel(ctx)
	go func() {
		defer close(snapDone)
		if s.path == "" || opts.SnapshotEvery <= 0 {
			return
		}
		ticker := time.NewTicker(opts.SnapshotEvery)
		defer ticker.Stop()
		for {
			select {
			case <-snapCtx.Done():
				return
			case <-ticker.C:
				if err := s.SnapshotNow(); err != nil {
					log.Printf("server: auto-snapshot: %v", err)
				}
			}
		}
	}()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		stopSnaps()
		<-snapDone
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop admitting (readiness 503), drain, then take
	// the final snapshot so a SIGTERM loses nothing.
	s.ready.Store(false)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), opts.ShutdownGrace)
	defer cancel()
	err := httpSrv.Shutdown(shutdownCtx)
	stopSnaps()
	<-snapDone
	if s.path != "" {
		if snapErr := s.SnapshotNow(); snapErr != nil {
			log.Printf("server: final snapshot: %v", snapErr)
			if err == nil {
				err = snapErr
			}
		}
	}
	return err
}
