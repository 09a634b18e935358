package tenant

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"stardust"
	"stardust/internal/gen"
	"stardust/internal/obs"
	"stardust/internal/spec"
)

func newWatcher(t *testing.T, streams int) *stardust.SafeWatcher {
	t.Helper()
	m, err := stardust.New(stardust.Config{Streams: streams, W: 4, Levels: 2, Transform: stardust.Sum})
	if err != nil {
		t.Fatal(err)
	}
	return stardust.NewSafeWatcher(m)
}

type fixture struct {
	reg   *Registry
	w     *stardust.SafeWatcher
	tm    *obs.TenantMetrics
	clock *fakeClock
}

type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newFixture(t *testing.T, streams int) *fixture {
	t.Helper()
	w := newWatcher(t, streams)
	tm := obs.NewTenantMetrics()
	clock := &fakeClock{t: time.Unix(1000, 0)}
	return &fixture{reg: New(w, tm, clock.now), w: w, tm: tm, clock: clock}
}

func tenantRow(t *testing.T, tm *obs.TenantMetrics, name string) obs.TenantSnapshot {
	t.Helper()
	for _, row := range tm.Snapshot().PerTenant {
		if row.Name == name {
			return row
		}
	}
	t.Fatalf("tenant %q has no metrics row", name)
	return obs.TenantSnapshot{}
}

func TestAddAllocatesDisjointSlices(t *testing.T) {
	f := newFixture(t, 8)
	if err := f.reg.Add(Config{Name: "a", Streams: 3}); err != nil {
		t.Fatal(err)
	}
	if err := f.reg.Add(Config{Name: "b", Streams: 4}); err != nil {
		t.Fatal(err)
	}
	infos := f.reg.Tenants()
	if len(infos) != 2 || infos[0].Base != 0 || infos[1].Base != 3 {
		t.Fatalf("bad allocation: %+v", infos)
	}
	if err := f.reg.Add(Config{Name: "c", Streams: 2}); !errors.Is(err, ErrExhausted) {
		t.Fatalf("overallocation error = %v, want ErrExhausted", err)
	}
	if err := f.reg.Add(Config{Name: "a", Streams: 1}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate error = %v, want ErrDuplicate", err)
	}
	if err := f.reg.Add(Config{Name: "d", Streams: 0}); err == nil {
		t.Fatal("zero-width tenant admitted")
	}
	if row := tenantRow(t, f.tm, "a"); row.Streams != 3 {
		t.Fatalf("streams gauge = %d, want 3", row.Streams)
	}
}

func TestRemoveRetiresSlice(t *testing.T) {
	f := newFixture(t, 8)
	if err := f.reg.Add(Config{Name: "a", Streams: 4}); err != nil {
		t.Fatal(err)
	}
	if err := f.reg.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := f.reg.Remove("a"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("second remove = %v, want ErrUnknownTenant", err)
	}
	// Retired ids are never reused: the next tenant starts at 4.
	if err := f.reg.Add(Config{Name: "b", Streams: 4}); err != nil {
		t.Fatal(err)
	}
	if infos := f.reg.Tenants(); infos[0].Base != 4 {
		t.Fatalf("retired slice reused: %+v", infos)
	}
}

func TestIngestTranslatesAndEnforcesQuota(t *testing.T) {
	f := newFixture(t, 8)
	if err := f.reg.Add(Config{Name: "a", Streams: 2}); err != nil {
		t.Fatal(err)
	}
	if err := f.reg.Add(Config{Name: "b", Streams: 2}); err != nil {
		t.Fatal(err)
	}
	// b's local stream 1 is global stream 3.
	if err := f.reg.Ingest("b", 1, 42); err != nil {
		t.Fatal(err)
	}
	if now := f.w.Now(3); now != 0 {
		t.Fatalf("global stream 3 clock = %d, want 0 (one sample)", now)
	}
	if now := f.w.Now(1); now != -1 {
		t.Fatalf("tenant a's space advanced: clock = %d", now)
	}
	if err := f.reg.Ingest("b", 2, 1); !errors.Is(err, ErrStreamQuota) {
		t.Fatalf("out-of-quota stream error = %v, want ErrStreamQuota", err)
	}
	if err := f.reg.Ingest("ghost", 0, 1); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant error = %v, want ErrUnknownTenant", err)
	}
	row := tenantRow(t, f.tm, "b")
	if row.Samples != 1 || row.Rejected != 1 {
		t.Fatalf("samples=%d rejected=%d, want 1, 1", row.Samples, row.Rejected)
	}
}

func TestIngestRateLimit(t *testing.T) {
	f := newFixture(t, 4)
	if err := f.reg.Add(Config{Name: "a", Streams: 1, RatePerSec: 2, Burst: 2}); err != nil {
		t.Fatal(err)
	}
	if err := f.reg.Ingest("a", 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.reg.Ingest("a", 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.reg.Ingest("a", 0, 3); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over-rate error = %v, want ErrRateLimited", err)
	}
	f.clock.advance(time.Second)
	if err := f.reg.Ingest("a", 0, 4); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	if row := tenantRow(t, f.tm, "a"); row.RateLimited != 1 || row.Samples != 3 {
		t.Fatalf("rate_limited=%d samples=%d, want 1, 3", row.RateLimited, row.Samples)
	}
}

func TestIngestBatchRefusedAsUnit(t *testing.T) {
	f := newFixture(t, 4)
	if err := f.reg.Add(Config{Name: "a", Streams: 1, RatePerSec: 4, Burst: 4}); err != nil {
		t.Fatal(err)
	}
	if err := f.reg.IngestBatch("a", 0, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := f.reg.IngestBatch("a", 0, []float64{4, 5}); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("partial-capacity batch = %v, want ErrRateLimited", err)
	}
	if now := f.w.Now(0); now != 2 {
		t.Fatalf("refused batch partially ingested: clock = %d (want 2: three samples)", now)
	}
}

const tenantSpec = `
tenant a {
    watch cpu on stream 0..1 aggregate window 4 threshold 100 edge on_fire "cpu hot" on_clear "cpu ok";
}
`

func TestLoadInstallsAndAnnotates(t *testing.T) {
	f := newFixture(t, 8)
	if err := f.reg.Add(Config{Name: "a", Streams: 2}); err != nil {
		t.Fatal(err)
	}
	if err := f.reg.Load("base", tenantSpec); err != nil {
		t.Fatal(err)
	}
	specs := f.reg.Specs()
	if len(specs) != 1 || specs[0].Watches != 2 {
		t.Fatalf("specs = %+v", specs)
	}
	if infos := f.reg.Tenants(); infos[0].Watches != 2 {
		t.Fatalf("tenant watch count = %d, want 2", infos[0].Watches)
	}
	var notes []Note
	f.w.SetEventSink(func(evs []stardust.Event) {
		for _, e := range evs {
			notes = append(notes, f.reg.Annotate(e))
		}
	})
	// Alarm tenant a's stream 1 (global 1): sum of window 4 over 100.
	for i := 0; i < 4; i++ {
		if err := f.reg.Ingest("a", 1, 50); err != nil {
			t.Fatal(err)
		}
	}
	if len(notes) == 0 {
		t.Fatal("no events fired")
	}
	n := notes[0]
	if n.Tenant != "a" || n.Spec != "base" || n.Watch != "cpu" || n.Message != "cpu hot" {
		t.Fatalf("bad note: %+v", n)
	}
	if row := tenantRow(t, f.tm, "a"); row.Events != int64(len(notes)) || row.WatchesActive != 2 {
		t.Fatalf("events=%d watches_active=%d, want %d, 2", row.Events, row.WatchesActive, len(notes))
	}
}

func TestLoadRejectsAtomically(t *testing.T) {
	f := newFixture(t, 8)
	if err := f.reg.Add(Config{Name: "a", Streams: 2}); err != nil {
		t.Fatal(err)
	}
	before := f.w.Metrics().Watch.ActiveAggregate
	err := f.reg.Load("bad", "watch ok on stream 0 aggregate window 4 threshold 1;\ntenant ghost { }")
	if err == nil {
		t.Fatal("spec with unknown tenant loaded")
	}
	var se *spec.Error
	if !errors.As(err, &se) {
		t.Fatalf("error %T does not carry line/col", err)
	}
	if se.Line != 2 {
		t.Fatalf("error line = %d, want 2", se.Line)
	}
	if got := f.w.Metrics().Watch.ActiveAggregate; got != before {
		t.Fatalf("failed load leaked watches: %d -> %d", before, got)
	}
	if len(f.reg.Specs()) != 0 {
		t.Fatal("failed load registered a spec")
	}
}

func TestLoadSwapIsAtomic(t *testing.T) {
	f := newFixture(t, 8)
	if err := f.reg.Load("u", "watch one on stream 0 aggregate window 4 threshold 1;"); err != nil {
		t.Fatal(err)
	}
	if err := f.reg.Load("u", "watch two on stream 1 aggregate window 8 threshold 2;\nwatch three on stream 2 aggregate window 4 threshold 3;"); err != nil {
		t.Fatal(err)
	}
	specs := f.reg.Specs()
	if len(specs) != 1 || specs[0].Watches != 2 {
		t.Fatalf("after swap: %+v", specs)
	}
	if got := f.w.Metrics().Watch.ActiveAggregate; got != 2 {
		t.Fatalf("active aggregate watches = %d, want 2", got)
	}
	// A failed swap leaves the old revision running.
	if err := f.reg.Load("u", "watch broken pattern query nope radius 1;"); err == nil {
		t.Fatal("broken swap succeeded")
	}
	if s, err := f.reg.Spec("u"); err != nil || s.Watches != 2 || !strings.Contains(s.Source, "two") {
		t.Fatalf("old revision not preserved: %+v, %v", s, err)
	}
}

func TestWatchQuota(t *testing.T) {
	f := newFixture(t, 8)
	if err := f.reg.Add(Config{Name: "a", Streams: 4, MaxWatches: 3}); err != nil {
		t.Fatal(err)
	}
	err := f.reg.Load("big", "tenant a { watch w on stream 0..3 aggregate window 4 threshold 1; }")
	if !errors.Is(err, ErrWatchQuota) {
		t.Fatalf("quota breach error = %v, want ErrWatchQuota", err)
	}
	if len(f.reg.Specs()) != 0 || f.reg.Tenants()[0].Watches != 0 {
		t.Fatal("refused spec left residue")
	}
	// A swap is charged net of the old revision: 3 -> 3 stays legal.
	if err := f.reg.Load("ok", "tenant a { watch w on stream 0..2 aggregate window 4 threshold 1; }"); err != nil {
		t.Fatal(err)
	}
	if err := f.reg.Load("ok", "tenant a { watch w2 on stream 1..3 aggregate window 8 threshold 2; }"); err != nil {
		t.Fatalf("same-size swap refused: %v", err)
	}
}

func TestRemoveRefusesWhileWatched(t *testing.T) {
	f := newFixture(t, 8)
	if err := f.reg.Add(Config{Name: "a", Streams: 2}); err != nil {
		t.Fatal(err)
	}
	if err := f.reg.Load("s", "tenant a { watch w on stream 0 aggregate window 4 threshold 1; }"); err != nil {
		t.Fatal(err)
	}
	if err := f.reg.Remove("a"); !errors.Is(err, ErrTenantBusy) {
		t.Fatalf("busy remove = %v, want ErrTenantBusy", err)
	}
	if err := f.reg.Unload("s"); err != nil {
		t.Fatal(err)
	}
	if err := f.reg.Remove("a"); err != nil {
		t.Fatalf("remove after unload: %v", err)
	}
}

func TestUnloadRemovesWatches(t *testing.T) {
	f := newFixture(t, 4)
	if err := f.reg.Load("s", "watch w on stream 0 aggregate window 4 threshold 10;"); err != nil {
		t.Fatal(err)
	}
	if err := f.reg.Unload("s"); err != nil {
		t.Fatal(err)
	}
	if err := f.reg.Unload("s"); !errors.Is(err, ErrUnknownSpec) {
		t.Fatalf("second unload = %v, want ErrUnknownSpec", err)
	}
	if got := f.w.Metrics().Watch.ActiveAggregate; got != 0 {
		t.Fatalf("unload leaked %d watches", got)
	}
	// The unloaded watch no longer annotates or fires counters.
	if n := f.reg.Annotate(stardust.Event{WatchID: 1}); n.Attributed() {
		t.Fatalf("stale attribution: %+v", n)
	}
}

func TestParseConfigs(t *testing.T) {
	cfgs, err := ParseConfigs([]byte(`[{"name": "a", "streams": 4, "rate_per_sec": 100}]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 1 || cfgs[0].Name != "a" || cfgs[0].RatePerSec != 100 {
		t.Fatalf("parsed %+v", cfgs)
	}
	if _, err := ParseConfigs([]byte(`[{"name": "a", "streems": 4}]`)); err == nil {
		t.Fatal("typo'd field accepted")
	}
}

// TestConcurrentIngestAndReload races tenant ingestion against spec
// swaps and unloads; run with -race. The invariant is no panic, no
// deadlock, and a clean final state.
func TestConcurrentIngestAndReload(t *testing.T) {
	f := newFixture(t, 8)
	if err := f.reg.Add(Config{Name: "a", Streams: 4}); err != nil {
		t.Fatal(err)
	}
	f.w.SetEventSink(func(evs []stardust.Event) {
		for _, e := range evs {
			f.reg.Annotate(e)
		}
	})
	if err := f.reg.Load("u", tenantSpecVariant(0)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if err := f.reg.Load("u", tenantSpecVariant(i%3)); err != nil {
				t.Errorf("reload %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < 500; i++ {
		if err := f.reg.Ingest("a", i%4, float64(i)); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	<-done
	if err := f.reg.Unload("u"); err != nil {
		t.Fatal(err)
	}
	if got := f.w.Metrics().Watch.ActiveAggregate; got != 0 {
		t.Fatalf("%d watches leaked", got)
	}
}

// TestReloadUnchangedSpecDoesNotRedeliver: reloading a spec swaps in
// fresh pattern and correlation watches under the same names. They report
// only results completed by arrivals after the swap, so no (watch, kind,
// streams, time) event is delivered twice across any number of reloads.
func TestReloadUnchangedSpecDoesNotRedeliver(t *testing.T) {
	const streams, w, n = 8, 16, 512
	m, err := stardust.New(stardust.Config{Streams: streams, W: w, Levels: 3, Transform: stardust.DWT,
		Mode: stardust.Batch, Coefficients: 4, Normalization: stardust.NormZ})
	if err != nil {
		t.Fatal(err)
	}
	sw := stardust.NewSafeWatcher(m)
	reg := New(sw, obs.NewTenantMetrics(), (&fakeClock{t: time.Unix(1000, 0)}).now)
	data := gen.CorrelatedWalks(rand.New(rand.NewSource(3)), streams, n, 4, 0.2)
	var q []string
	for _, v := range data[2][200:248] {
		q = append(q, fmt.Sprintf("%.6f", v))
	}
	src := fmt.Sprintf("let q = [%s];\nwatch shape pattern query q radius 0.5;\nwatch pairs correlation level 2 radius 0.2;\n",
		strings.Join(q, ", "))
	delivered := make(map[string]int)
	sw.SetEventSink(func(evs []stardust.Event) {
		for _, e := range evs {
			note := reg.Annotate(e)
			delivered[fmt.Sprintf("%s %v %d-%d %d-%d", note.Watch, e.Kind, e.Stream, e.StreamB, e.Time, e.TimeB)]++
		}
	})
	for lo := 0; lo < n; lo += w {
		if lo%(4*w) == 0 {
			if err := reg.Load("u", src); err != nil {
				t.Fatal(err)
			}
		}
		for s := 0; s < streams; s++ {
			if err := sw.IngestBatch(s, data[s][lo:lo+w]); err != nil {
				t.Fatal(err)
			}
		}
	}
	kinds := make(map[string]bool)
	for key, count := range delivered {
		kinds[strings.Fields(key)[0]] = true
		if count > 1 {
			t.Errorf("event %s delivered %d times", key, count)
		}
	}
	if !kinds["shape"] || !kinds["pairs"] {
		t.Fatalf("watches fired %v; the test needs both kinds", kinds)
	}
}

func tenantSpecVariant(i int) string {
	switch i {
	case 0:
		return "tenant a { watch w on stream 0..1 aggregate window 4 threshold 50 edge; }"
	case 1:
		return "tenant a { watch w on stream 0..3 aggregate window 8 threshold 100; }"
	default:
		return "tenant a { watch w on stream 2 aggregate window 4 threshold 10 edge on_fire \"hot\"; }"
	}
}
