// HTTP monitoring demo: runs the stardust HTTP service in-process, feeds it
// a bursty stream over POST /ingest, and polls GET /aggregate like an
// external alerting client would — the full production loop in one binary.
//
//	go run ./examples/httpmonitor
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"time"

	"stardust"
	"stardust/internal/gen"
	"stardust/internal/server"
)

func main() {
	m, err := stardust.New(stardust.Config{
		Streams: 2, W: 10, Levels: 4, Transform: stardust.Sum, BoxCapacity: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	mon := stardust.NewSafeWatcher(m)

	// Serve on an ephemeral local port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := http.Serve(ln, server.New(mon)); err != nil {
			log.Print(err)
		}
	}()
	base := "http://" + ln.Addr().String()
	fmt.Printf("monitoring service at %s\n", base)

	// A producer pushes batches of values; stream 0 gets a burst halfway.
	rng := rand.New(rand.NewSource(99))
	data := [][]float64{gen.Burst(rng, 1200, 6, 50), gen.RandomWalk(rng, 1200)}
	client := &http.Client{Timeout: 5 * time.Second}

	const batch = 100
	for off := 0; off < 1200; off += batch {
		for s := 0; s < 2; s++ {
			body, _ := json.Marshal(map[string]any{
				"stream": s,
				"values": data[s][off : off+batch],
			})
			resp, err := client.Post(base+"/ingest", "application/json", bytes.NewReader(body))
			if err != nil {
				log.Fatal(err)
			}
			resp.Body.Close()
		}
		// After each batch, the alerting client checks two timescales.
		for _, q := range []struct {
			w   int
			tau float64
		}{{40, 600}, {80, 1100}} {
			url := fmt.Sprintf("%s/aggregate?stream=0&window=%d&threshold=%g", base, q.w, q.tau)
			resp, err := client.Get(url)
			if err != nil {
				log.Fatal(err)
			}
			var out struct {
				Alarm bool    `json:"alarm"`
				Exact float64 `json:"exact"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				log.Fatal(err)
			}
			resp.Body.Close()
			if out.Alarm {
				fmt.Printf("t≈%4d: ALERT window=%d sum=%.0f (τ=%g)\n", off+batch, q.w, out.Exact, q.tau)
			}
		}
	}

	// Finish with the space snapshot an operator would scrape.
	resp, err := client.Get(base + "/stats")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var stats stardust.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfinal state: %d streams, %d raw values retained, %d summary boxes\n",
		stats.Streams, stats.RawHistory, stats.TotalBoxes())
}
