package stardust

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// stripDABA removes every aggregate watch's worst-case O(1) verifier,
// forcing the pre-change path: exact verification by the O(w) fold over
// raw history on every candidate.
func stripDABA(w *Watcher) {
	for _, list := range w.aggs {
		for _, a := range list {
			a.agg = nil
			a.exactFn = nil
		}
	}
}

// parityStream mixes background noise, burst episodes and occasional
// non-finite values (exercising guard repair, whose admitted values the
// verifier must see).
func parityStream(rng *rand.Rand, n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		switch {
		case rng.Intn(40) == 0:
			vs[i] = math.Inf(1) // repaired by LastValue
		case rng.Intn(7) == 0:
			vs[i] = 50 + rng.Float64()*30 // burst-ish
		default:
			vs[i] = rng.NormFloat64() * 5
		}
	}
	return vs
}

// TestWatcherDABAParity pins the tentpole's parity contract: for every
// transform, a DABA-equipped watcher and one stripped back to the
// pre-change fold verification must produce identical event streams,
// identical CheckAggregate results and byte-identical snapshots over a
// repair-heavy input. Run under -race in CI.
func TestWatcherDABAParity(t *testing.T) {
	for _, tr := range []Transform{Sum, Max, Min, Spread} {
		t.Run(tr.String(), func(t *testing.T) {
			cfg := Config{
				Streams: 2, W: 4, Levels: 3, Transform: tr, History: 64,
				BadValues: GuardConfig{Policy: LastValueBad},
			}
			wNew := newWatcher(t, cfg)
			wOld := newWatcher(t, cfg)
			for _, w := range []*Watcher{wNew, wOld} {
				// Level-triggered and edge-triggered, a composite window
				// (12 = 4 + 8 decomposes across two levels), both streams.
				if _, err := w.WatchAggregate(0, 8, 60, false); err != nil {
					t.Fatal(err)
				}
				if _, err := w.WatchAggregate(0, 12, 90, true); err != nil {
					t.Fatal(err)
				}
				if _, err := w.WatchAggregate(1, 4, 40, true); err != nil {
					t.Fatal(err)
				}
			}
			if tr != Sum {
				for _, list := range wNew.aggs {
					for _, a := range list {
						if a.agg == nil {
							t.Fatalf("%v: DABA verifier not installed", tr)
						}
					}
				}
			}
			stripDABA(wOld)

			rng := rand.New(rand.NewSource(97))
			for s := 0; s < 2; s++ {
				for i, v := range parityStream(rng, 400) {
					evNew, errNew := wNew.Push(s, v)
					evOld, errOld := wOld.Push(s, v)
					if (errNew == nil) != (errOld == nil) {
						t.Fatalf("%v stream %d step %d: err %v vs %v", tr, s, i, errNew, errOld)
					}
					if !reflect.DeepEqual(evNew, evOld) {
						t.Fatalf("%v stream %d step %d: events diverge:\n new %+v\n old %+v",
							tr, s, i, evNew, evOld)
					}
				}
			}

			// Point query parity on top of the event stream.
			for _, win := range []int{4, 8, 12} {
				rNew, errNew := wNew.mon.CheckAggregate(0, win, 1)
				rOld, errOld := wOld.mon.CheckAggregate(0, win, 1)
				if (errNew == nil) != (errOld == nil) || rNew != rOld {
					t.Fatalf("%v window %d: CheckAggregate %+v/%v vs %+v/%v",
						tr, win, rNew, errNew, rOld, errOld)
				}
			}

			var bNew, bOld bytes.Buffer
			if err := wNew.mon.Snapshot(&bNew); err != nil {
				t.Fatal(err)
			}
			if err := wOld.mon.Snapshot(&bOld); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bNew.Bytes(), bOld.Bytes()) {
				t.Fatalf("%v: snapshots diverge (%d vs %d bytes)", tr, bNew.Len(), bOld.Len())
			}
		})
	}
}

// TestWatcherDABARecoveryParity checks that the verifier survives the
// recovery paths: after a snapshot-restore-style reseed (primeRecovery)
// and replayed samples, the DABA-equipped watcher still matches the
// stripped one event for event.
func TestWatcherDABARecoveryParity(t *testing.T) {
	cfg := Config{Streams: 1, W: 4, Levels: 3, Transform: Spread, History: 64}
	wNew := newWatcher(t, cfg)
	wOld := newWatcher(t, cfg)
	for _, w := range []*Watcher{wNew, wOld} {
		if _, err := w.WatchAggregate(0, 8, 20, true); err != nil {
			t.Fatal(err)
		}
	}
	stripDABA(wOld)

	rng := rand.New(rand.NewSource(131))
	warm := parityStream(rng, 100)
	for i, v := range warm {
		evNew, _ := wNew.Push(0, v)
		evOld, _ := wOld.Push(0, v)
		if !reflect.DeepEqual(evNew, evOld) {
			t.Fatalf("warmup step %d: events diverge", i)
		}
	}

	// Simulate the bootstrap path: re-prime both watchers against their
	// current state (reseeding wNew's verifier from history), then replay
	// more samples through the suppressed-event path before going live.
	wNew.primeRecovery()
	wOld.primeRecovery()
	replay := parityStream(rng, 50)
	for _, v := range replay {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			continue // replay carries only admitted samples
		}
		wNew.apply(0, []float64{v}, false)
		wOld.apply(0, []float64{v}, false)
	}
	for i, v := range parityStream(rng, 200) {
		evNew, _ := wNew.Push(0, v)
		evOld, _ := wOld.Push(0, v)
		if !reflect.DeepEqual(evNew, evOld) {
			t.Fatalf("post-recovery step %d: events diverge:\n new %+v\n old %+v", i, evNew, evOld)
		}
	}
}
