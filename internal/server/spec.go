package server

import (
	"encoding/json"
	"errors"
	"net/http"

	"stardust/internal/obs"
	"stardust/internal/spec"
	"stardust/internal/tenant"
	"stardust/internal/wire"
)

// WithTenants enables the declarative-monitoring tier: the registry
// serves spec load/unload on /specz, tenant admin on /tenantz,
// tenant-attributed ingestion (the "tenant" field of POST /ingest), and
// per-event attribution on GET /events. tm may be nil; when set, its
// stardust_tenant_* series merge into GET /metricsz. The registry must
// wrap the server's own SafeWatcher backend.
func WithTenants(reg *tenant.Registry, tm *obs.TenantMetrics) Option {
	return func(s *Server) {
		s.tenants = reg
		s.tenantMetrics = tm
	}
}

// tenantStatus maps the registry's typed errors to HTTP statuses: an
// unknown name is 404, an over-rate tenant is told to back off (429),
// quota breaches are the client's fault (400 for streams, 403 for the
// watch budget), and spec diagnostics are 400.
func tenantStatus(err error) int {
	switch {
	case errors.Is(err, tenant.ErrUnknownTenant), errors.Is(err, tenant.ErrUnknownSpec):
		return http.StatusNotFound
	case errors.Is(err, tenant.ErrRateLimited):
		return http.StatusTooManyRequests
	case errors.Is(err, tenant.ErrWatchQuota), errors.Is(err, tenant.ErrTenantBusy):
		return http.StatusForbidden
	case errors.Is(err, tenant.ErrStreamQuota), errors.Is(err, tenant.ErrExhausted),
		errors.Is(err, tenant.ErrDuplicate):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// tenantCode maps the registry's typed errors to wire nack codes.
func tenantCode(err error) byte {
	switch {
	case errors.Is(err, tenant.ErrUnknownTenant):
		return wire.CodeUnknownTenant
	case errors.Is(err, tenant.ErrUnknownSpec):
		return wire.CodeUnknownSpec
	case errors.Is(err, tenant.ErrRateLimited), errors.Is(err, tenant.ErrStreamQuota),
		errors.Is(err, tenant.ErrWatchQuota), errors.Is(err, tenant.ErrExhausted),
		errors.Is(err, tenant.ErrDuplicate), errors.Is(err, tenant.ErrTenantBusy):
		return wire.CodeQuota
	default:
		return wire.CodeFor(err)
	}
}

// writeTenantErr renders a registry error with its status and code.
func writeTenantErr(w http.ResponseWriter, err error) {
	writeJSON(w, tenantStatus(err), map[string]any{
		"error": err.Error(), "code": tenantCode(err),
	})
}

// writeSpecErr renders a spec load failure. Parse and compile
// diagnostics carry their 1-based source position as line/col fields so
// an operator (or editor integration) can jump straight to the fault.
func writeSpecErr(w http.ResponseWriter, err error) {
	var se *spec.Error
	if errors.As(err, &se) {
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error": err.Error(), "code": wire.CodeSpec,
			"line": se.Line, "col": se.Col,
		})
		return
	}
	writeTenantErr(w, err)
}

// requireTenants gates the /specz and /tenantz surface.
func (s *Server) requireTenants(w http.ResponseWriter) bool {
	if s.tenants == nil {
		writeErr(w, http.StatusNotImplemented, "spec/tenant admin requires a server built with a tenant registry")
		return false
	}
	return true
}

// SetSpecForwarder delegates the /specz and /tenantz surface to h on
// servers without a local registry. The router uses this to broadcast
// spec and tenant admin across its shards; a plain server leaves it nil
// and answers 501.
func (s *Server) SetSpecForwarder(h http.Handler) { s.specForward = h }

// adminGate admits a /specz or /tenantz request: served locally when a
// registry is wired, delegated when a forwarder is, 501 otherwise.
func (s *Server) adminGate(w http.ResponseWriter, r *http.Request) bool {
	if s.tenants != nil {
		return true
	}
	if s.specForward != nil {
		s.specForward.ServeHTTP(w, r)
		return false
	}
	writeErr(w, http.StatusNotImplemented, "spec/tenant admin requires a server built with a tenant registry")
	return false
}

// handleTenantIngest routes a tenant-scoped ingest request: the registry
// translates the tenant-local stream id and enforces stream, rate and
// value admission before the shared watcher sees the samples.
func (s *Server) handleTenantIngest(w http.ResponseWriter, req ingestRequest) {
	if !s.requireTenants(w) {
		return
	}
	if req.Stream == nil || len(req.Rows) > 0 {
		writeErr(w, http.StatusBadRequest, "tenant ingest takes stream+values (rows are not tenant-scoped)")
		return
	}
	if err := s.tenants.IngestBatch(req.Tenant, *req.Stream, req.Values); err != nil {
		status := tenantStatus(err)
		if status == http.StatusInternalServerError {
			status = ingestStatus(err) // backend guard rejection, not a tenant error
		}
		writeJSON(w, status, map[string]any{
			"error": err.Error(), "code": tenantCode(err),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"values": len(req.Values)})
}

// handleSpecList serves GET /specz: every loaded unit, or one unit with
// ?name= (404 when absent).
func (s *Server) handleSpecList(w http.ResponseWriter, r *http.Request) {
	if !s.adminGate(w, r) {
		return
	}
	if name := r.URL.Query().Get("name"); name != "" {
		info, err := s.tenants.Spec(name)
		if err != nil {
			writeTenantErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"specs": s.tenants.Specs()})
}

// specLoadRequest is the body of POST /specz.
type specLoadRequest struct {
	// Name identifies the unit; loading an existing name atomically
	// swaps the old revision for the new one.
	Name string `json:"name"`
	// Source is the spec text (see RUNBOOK.md, "Monitor spec language").
	Source string `json:"source"`
}

// handleSpecLoad serves POST /specz: parse, compile and install a spec
// as one atomic unit. On failure nothing changes and the response
// carries the first diagnostic with its line/col.
func (s *Server) handleSpecLoad(w http.ResponseWriter, r *http.Request) {
	if !s.adminGate(w, r) {
		return
	}
	var req specLoadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding body: %v", err)
		return
	}
	if req.Name == "" || req.Source == "" {
		writeErr(w, http.StatusBadRequest, "name and source required")
		return
	}
	if err := s.tenants.Load(req.Name, req.Source); err != nil {
		writeSpecErr(w, err)
		return
	}
	info, err := s.tenants.Spec(req.Name)
	if err != nil {
		writeTenantErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name": info.Name, "watches": info.Watches,
	})
}

// handleSpecUnload serves DELETE /specz?name=unit.
func (s *Server) handleSpecUnload(w http.ResponseWriter, r *http.Request) {
	if !s.adminGate(w, r) {
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		writeErr(w, http.StatusBadRequest, "missing parameter %q", "name")
		return
	}
	if err := s.tenants.Unload(name); err != nil {
		writeTenantErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"unloaded": name})
}

// handleTenantList serves GET /tenantz.
func (s *Server) handleTenantList(w http.ResponseWriter, r *http.Request) {
	if !s.adminGate(w, r) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenants": s.tenants.Tenants()})
}

// handleTenantAdd serves POST /tenantz: admit a tenant from a Config
// body, allocating the next slice of the backend's stream space.
func (s *Server) handleTenantAdd(w http.ResponseWriter, r *http.Request) {
	if !s.adminGate(w, r) {
		return
	}
	var cfg tenant.Config
	if err := json.NewDecoder(r.Body).Decode(&cfg); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding body: %v", err)
		return
	}
	if err := s.tenants.Add(cfg); err != nil {
		writeTenantErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenants": s.tenants.Tenants()})
}

// handleTenantRemove serves DELETE /tenantz?name=acme. Removal is
// refused (403) while loaded specs still watch the tenant's streams.
func (s *Server) handleTenantRemove(w http.ResponseWriter, r *http.Request) {
	if !s.adminGate(w, r) {
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		writeErr(w, http.StatusBadRequest, "missing parameter %q", "name")
		return
	}
	if err := s.tenants.Remove(name); err != nil {
		writeTenantErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"removed": name})
}
