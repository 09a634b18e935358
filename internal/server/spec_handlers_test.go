package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stardust"
	"stardust/internal/obs"
	"stardust/internal/tenant"
	"stardust/internal/wire"
)

// newTenantServer boots a watcher-backed server with a tenant registry
// over a 16-stream SUM backend (aggregate watches need SUM extents).
func newTenantServer(t *testing.T) (*httptest.Server, *tenant.Registry) {
	t.Helper()
	mon, err := stardust.New(stardust.Config{
		Streams: 16, W: 8, Levels: 4, Transform: stardust.Sum, BoxCapacity: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	sw := stardust.NewSafeWatcher(mon)
	tm := obs.NewTenantMetrics()
	reg := tenant.New(sw, tm, time.Now)
	ts := httptest.NewServer(New(sw, WithTenants(reg, tm)))
	t.Cleanup(ts.Close)
	return ts, reg
}

func deleteJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func wantCode(t *testing.T, body map[string]any, code byte) {
	t.Helper()
	got, ok := body["code"].(float64)
	if !ok || byte(got) != code {
		t.Fatalf("code = %v, want %d (body %v)", body["code"], code, body)
	}
}

func TestSpecAdminRequiresRegistry(t *testing.T) {
	mon, err := newSafe(stardust.Config{
		Streams: 2, W: 8, Levels: 4, Transform: stardust.Sum, BoxCapacity: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(mon))
	defer ts.Close()
	for _, path := range []string{"/specz", "/tenantz"} {
		resp, _ := getJSON(t, ts.URL+path)
		if resp.StatusCode != http.StatusNotImplemented {
			t.Errorf("GET %s without registry: status %d, want 501", path, resp.StatusCode)
		}
	}
}

func TestTenantAdminLifecycle(t *testing.T) {
	ts, _ := newTenantServer(t)

	resp, body := postJSON(t, ts.URL+"/tenantz", tenant.Config{Name: "acme", Streams: 4, MaxWatches: 8})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add tenant: status %d body %v", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/tenantz", tenant.Config{Name: "acme", Streams: 4})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate tenant: status %d, want 400", resp.StatusCode)
	}

	resp, body = getJSON(t, ts.URL+"/tenantz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list tenants: status %d", resp.StatusCode)
	}
	tenants, _ := body["tenants"].([]any)
	if len(tenants) != 1 {
		t.Fatalf("tenants = %v, want one entry", body["tenants"])
	}

	resp, body = deleteJSON(t, ts.URL+"/tenantz?name=ghost")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("remove unknown tenant: status %d, want 404", resp.StatusCode)
	}
	wantCode(t, body, wire.CodeUnknownTenant)

	resp, _ = deleteJSON(t, ts.URL+"/tenantz?name=acme")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove tenant: status %d", resp.StatusCode)
	}
}

func TestSpecLoadRejectsWithPosition(t *testing.T) {
	ts, _ := newTenantServer(t)
	resp, body := postJSON(t, ts.URL+"/specz", specLoadRequest{
		Name:   "bad",
		Source: "watch a on stream 0 aggregate window 8\nthreshold oops;",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: status %d body %v, want 400", resp.StatusCode, body)
	}
	wantCode(t, body, wire.CodeSpec)
	if line, _ := body["line"].(float64); line != 2 {
		t.Errorf("line = %v, want 2 (body %v)", body["line"], body)
	}
	if _, ok := body["col"].(float64); !ok {
		t.Errorf("body missing col: %v", body)
	}
	// A rejected load leaves nothing behind.
	if _, body = getJSON(t, ts.URL+"/specz"); body["specs"] != nil {
		if specs, _ := body["specs"].([]any); len(specs) != 0 {
			t.Errorf("specs after rejected load = %v, want none", body["specs"])
		}
	}
}

func TestSpecLifecycleOverHTTP(t *testing.T) {
	ts, reg := newTenantServer(t)
	if err := reg.Add(tenant.Config{Name: "acme", Streams: 4, MaxWatches: 8}); err != nil {
		t.Fatal(err)
	}

	source := strings.Join([]string{
		`watch burst on stream 0..1 aggregate window 8 threshold 3 edge;`,
		`tenant acme {`,
		`    watch hot on stream 0 aggregate window 8 threshold 2 on_fire "acme hot";`,
		`}`,
	}, "\n")
	resp, body := postJSON(t, ts.URL+"/specz", specLoadRequest{Name: "base", Source: source})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load spec: status %d body %v", resp.StatusCode, body)
	}
	if n, _ := body["watches"].(float64); n != 3 {
		t.Fatalf("watches = %v, want 3 (range expands)", body["watches"])
	}

	resp, body = getJSON(t, ts.URL+"/specz?name=base")
	if resp.StatusCode != http.StatusOK || body["name"] != "base" {
		t.Fatalf("get spec: status %d body %v", resp.StatusCode, body)
	}
	resp, _ = getJSON(t, ts.URL+"/specz?name=ghost")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get unknown spec: status %d, want 404", resp.StatusCode)
	}

	// The tenant is busy while the spec watches its streams.
	resp, body = deleteJSON(t, ts.URL+"/tenantz?name=acme")
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("remove busy tenant: status %d body %v, want 403", resp.StatusCode, body)
	}

	resp, _ = deleteJSON(t, ts.URL+"/specz?name=base")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unload: status %d", resp.StatusCode)
	}
	resp, _ = deleteJSON(t, ts.URL+"/tenantz?name=acme")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove tenant after unload: status %d", resp.StatusCode)
	}
}

func TestTenantIngestOverHTTP(t *testing.T) {
	ts, reg := newTenantServer(t)
	if err := reg.Add(tenant.Config{Name: "acme", Streams: 2, RatePerSec: 1000, Burst: 4}); err != nil {
		t.Fatal(err)
	}

	stream := 0
	resp, body := postJSON(t, ts.URL+"/ingest", map[string]any{
		"tenant": "acme", "stream": stream, "values": []float64{1, 2},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant ingest: status %d body %v", resp.StatusCode, body)
	}

	resp, body = postJSON(t, ts.URL+"/ingest", map[string]any{
		"tenant": "ghost", "stream": stream, "values": []float64{1},
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant ingest: status %d, want 404", resp.StatusCode)
	}
	wantCode(t, body, wire.CodeUnknownTenant)

	resp, body = postJSON(t, ts.URL+"/ingest", map[string]any{
		"tenant": "acme", "stream": 7, "values": []float64{1},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-slice ingest: status %d, want 400", resp.StatusCode)
	}
	wantCode(t, body, wire.CodeQuota)

	// Burst of 4 tokens: a 5-value batch is refused as a unit.
	resp, body = postJSON(t, ts.URL+"/ingest", map[string]any{
		"tenant": "acme", "stream": stream, "values": []float64{1, 2, 3, 4, 5},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate ingest: status %d body %v, want 429", resp.StatusCode, body)
	}
	wantCode(t, body, wire.CodeQuota)
}

func TestEventsCarryTenantAttribution(t *testing.T) {
	ts, reg := newTenantServer(t)
	if err := reg.Add(tenant.Config{Name: "acme", Streams: 2, MaxWatches: 4}); err != nil {
		t.Fatal(err)
	}
	source := `tenant acme { watch hot on stream 0 aggregate window 8 threshold 5 on_fire "acme is hot"; }`
	if err := reg.Load("alerts", source); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		resp, body := postJSON(t, ts.URL+"/ingest", map[string]any{
			"tenant": "acme", "stream": 0, "values": []float64{10},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: status %d body %v", i, resp.StatusCode, body)
		}
	}

	resp, body := getJSON(t, ts.URL+"/events?tenant=acme")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	events, _ := body["events"].([]any)
	if len(events) == 0 {
		t.Fatalf("no events for tenant acme: %v", body)
	}
	first, _ := events[0].(map[string]any)
	ev, _ := first["event"].(map[string]any)
	if ev == nil {
		ev = first
	}
	if ev["tenant"] != "acme" || ev["watch"] != "hot" {
		t.Errorf("event attribution = tenant %v watch %v, want acme/hot (%v)", ev["tenant"], ev["watch"], first)
	}

	// Filtering on another tenant hides them.
	_, body = getJSON(t, ts.URL+"/events?tenant=other")
	if events, _ := body["events"].([]any); len(events) != 0 {
		t.Errorf("events for other tenant = %v, want none", body["events"])
	}
}

func TestMetricsExposeTenantSeries(t *testing.T) {
	ts, reg := newTenantServer(t)
	if err := reg.Add(tenant.Config{Name: "acme", Streams: 2}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Ingest("acme", 0, 1.5); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metricsz?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	text := string(buf[:n])
	want := fmt.Sprintf("stardust_tenant_samples_total{tenant=%q} 1", "acme")
	if !strings.Contains(text, want) {
		t.Errorf("prom output missing %q", want)
	}
}
