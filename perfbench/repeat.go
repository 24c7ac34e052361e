package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the steadiness report reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadBounds reads each end-to-end metric's bound from BENCHMARK.json in the
// working directory; without the file the report shows no bounds.
func loadBounds() map[string]float64 {
	bounds := map[string]float64{}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return bounds
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: BENCHMARK.json:", err)
		return bounds
	}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds
}

// lastLine returns the final non-empty line of out.
func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

// spreadStats summarizes one metric over the repeated runs.
type spreadStats struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"` // (q3 - q1) / median
	Bound  float64 `json:"bound,omitempty"`
}

func summarize(values []float64, bound float64) spreadStats {
	q1, q3 := quartiles(values)
	m := median(values)
	return spreadStats{Median: m, Q1: q1, Q3: q3, Spread: ratio(q3-q1, m), Bound: bound}
}

// verdict grades a spread against its bound: the benchmark counts as steady
// when the spread stays below a third of the bound.
func verdict(s spreadStats) string {
	switch {
	case s.Bound == 0:
		return ""
	case s.Spread < s.Bound/3:
		return "steady"
	case s.Spread <= s.Bound:
		return "within bound"
	default:
		return "WIDE"
	}
}

// repeatRuns is the steadiness report: it runs the workload o.repeat times
// as child processes, each with the next seed, and prints every metric's
// median, quartiles and spread against its bound.
func repeatRuns(o options) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	bounds := loadBounds()
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < o.repeat; i++ {
		seed := o.seed + int64(i)
		cmd := exec.Command(exe,
			"--workload", o.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(o.trace),
			"--server", o.server, "--work", o.work)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		var res result
		if jerr := json.Unmarshal(lastLine(out), &res); jerr != nil || err != nil || !res.Correct {
			fmt.Fprintf(os.Stderr, "perfbench: run with seed %d failed (%v, %v)\n", seed, err, jerr)
			return 1
		}
		var parts []string
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			parts = append(parts, fmt.Sprintf("%s=%.6g", name, m.Value))
		}
		sort.Strings(parts)
		fmt.Printf("run seed=%d %s\n", seed, strings.Join(parts, " "))
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	summary := map[string]spreadStats{}
	fmt.Printf("%-32s %-8s %12s %12s %12s %8s %6s  %s\n", "metric", "unit", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, n := range names {
		s := summarize(values[n], bounds[n])
		summary[n] = s
		fmt.Printf("%-32s %-8s %12.6g %12.6g %12.6g %8.4f %6.3g  %s\n", n, units[n], s.Median, s.Q1, s.Q3, s.Spread, s.Bound, verdict(s))
	}
	line, err := json.Marshal(map[string]any{"workload": o.workload, "runs": o.repeat, "first_seed": o.seed, "metrics": summary})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
