package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// steadyReport is one workload's spread over repeated runs.
type steadyReport struct {
	Workload string                        `json:"workload"`
	Seeds    []int64                       `json:"seeds"`
	Started  string                        `json:"started"`
	Failed   []float64                     `json:"failed_share"`
	Values   map[string][]float64          `json:"values"`
	Summary  map[string]map[string]float64 `json:"summary"`
}

// runSteady runs each named workload n times with seeds seed, seed+1, …
// as child processes of this binary (each a cold process, as the real
// runs are), then prints every metric's median, quartiles and spread
// (interquartile distance over the median) and writes the values to
// <out>/steady/.
func runSteady(name string, seed int64, seconds, n, trace int, server, out string) error {
	names := []string{name}
	if name == "all" {
		names = workloadOrder
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range names {
		if _, ok := workloads[w]; !ok {
			return fmt.Errorf("unknown workload %q", w)
		}
		rep := steadyReport{Workload: w, Started: time.Now().UTC().Format(time.RFC3339), Values: map[string][]float64{}}
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-server", server, "-out", out)
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", w, s, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: incorrect", w, s)
			}
			rep.Seeds = append(rep.Seeds, s)
			rep.Failed = append(rep.Failed, float64(res.Failed)/float64(res.Attempted))
			for k, m := range res.Metrics {
				rep.Values[k] = append(rep.Values[k], m.Value)
			}
		}
		rep.Summary = map[string]map[string]float64{}
		var keys []string
		for k := range rep.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("%s: %d runs, seeds %d..%d, %ds each, failed share %v\n", w, n, seed, seed+int64(n)-1, seconds, rep.Failed[0])
		fmt.Printf("  %-34s %14s %14s %14s %8s\n", "metric", "q1", "median", "q3", "spread")
		for _, k := range keys {
			xs := rep.Values[k]
			q1, q2, q3 := quartiles(xs)
			spread := (q3 - q1) / q2
			rep.Summary[k] = map[string]float64{"q1": q1, "median": q2, "q3": q3, "spread": spread}
			fmt.Printf("  %-34s %14.6g %14.6g %14.6g %8.4f\n", k, q1, q2, q3, spread)
		}
		b, _ := json.MarshalIndent(rep, "", "  ")
		dir := mustMkdir(filepath.Join(out, "steady"))
		path := filepath.Join(dir, fmt.Sprintf("%s-%s.json", w, time.Now().UTC().Format("20060102T150405")))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("  values: %s\n", path)
	}
	return nil
}
