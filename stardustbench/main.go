// Command stardustbench is the end-to-end benchmark of stardust-server.
// Each invocation builds one workload's inputs from a seed, starts a real
// cmd/stardust-server process, drives it from this one client process in
// a closed loop (one operation in flight; binary TCP ingest through
// client.WithTCP, queries over HTTP), checks every answer against values
// computed here from the generated data, and prints one JSON result line.
//
// With -trace 1 the same wire run is followed by an in-process replay of
// the identical operation sequence that times the calls into each layer's
// public functions; that run prints the per-layer figures instead of the
// end-to-end ones. With -steady N the binary re-runs itself N times per
// workload with consecutive seeds and prints each metric's quartiles.
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// processStart is taken before anything else runs, so setup_s counts the
// whole cold set-up of this process.
var processStart = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to the function that plans it.
var workloads = map[string]func(seed int64, seconds int) *plan{
	"burst-ingest":      planBurst,
	"correlation-watch": planCorrWatch,
	"query-mix":         planQueryMix,
}

var workloadOrder = []string{"burst-ingest", "correlation-watch", "query-mix"}

func main() {
	name := flag.String("workload", "", "workload: burst-ingest, correlation-watch, query-mix (\"all\" with -steady)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "nominal length of the measured phase; sets the amount of work")
	trace := flag.Int("trace", 0, "1: follow the wire run with the traced in-process replay and print per-layer metrics")
	serverBin := flag.String("server", ".bench_build/stardust-server", "stardust-server binary")
	out := flag.String("out", ".bench_build", "directory for run files, span files and steadiness reports")
	steady := flag.Int("steady", 0, "run each workload this many times with consecutive seeds and print quartiles")
	flag.Parse()

	if *steady > 0 {
		if err := runSteady(*name, *seed, *seconds, *steady, *trace, *serverBin, *out); err != nil {
			fmt.Fprintln(os.Stderr, "stardustbench:", err)
			os.Exit(1)
		}
		return
	}
	planFn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "stardustbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "stardustbench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	bin, err := filepath.Abs(*serverBin)
	if err == nil {
		_, err = os.Stat(bin)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "stardustbench: server binary: %v\n", err)
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(mustMkdir(filepath.Join(*out, "runs")), *name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "stardustbench:", err)
		os.Exit(1)
	}
	res, err := run(planFn(*seed, *seconds), bin, dir, *out, *seed, *trace == 1)
	// Run files (WAL, snapshots, logs) are only needed while the run is
	// live; a failed run keeps them for inspection.
	if err == nil && res.Correct {
		os.RemoveAll(dir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "stardustbench: %s: %v (run files in %s)\n", *name, err, dir)
		os.Exit(1)
	}
	enc, _ := json.Marshal(res)
	fmt.Println(string(enc))
	if !res.Correct {
		os.Exit(1)
	}
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "stardustbench:", err)
		os.Exit(1)
	}
	return dir
}

// logf writes a progress or report line to standard error; standard
// output carries only the result line.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
