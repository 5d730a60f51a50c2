package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// contract is the part of BENCHMARK.json the A/A check reads.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readContract finds BENCHMARK.json from the repository root or from
// bench/, the two directories the benchmark is started in.
func readContract() (*contract, error) {
	var c contract
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		if b, err = os.ReadFile("../BENCHMARK.json"); err != nil {
			return nil, err
		}
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// runAA runs every workload twice in ABAB order, each run a fresh process
// as the driver starts them, and prints for every end-to-end metric how
// much worse the second run was than the first, next to the bound
// BENCHMARK.json fixes. Two runs of the same code that differ by more than
// a bound mean the benchmark cannot resolve a regression of that size on
// this machine; the exit code says so.
func runAA(seed uint64, seconds float64) int {
	c, err := readContract()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var rounds [2]map[string]map[string]float64
	for r := range rounds {
		rounds[r] = make(map[string]map[string]float64)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "bench: round %d, %s\n", r+1, w.Name)
			cmd := exec.Command(exe, "-workload", w.Name,
				"-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
				return 1
			}
			rounds[r][w.Name] = parseMetrics(string(out))
		}
	}
	fmt.Printf("%-14s %-18s %12s %12s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	code := 0
	for _, w := range workloads {
		a, b := rounds[0][w.Name], rounds[1][w.Name]
		for _, m := range c.EndToEnd {
			worse := (b[m.Name] - a[m.Name]) / a[m.Name]
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if math.Abs(worse) > m.Bound {
				verdict, code = "  PAST BOUND", 1
			}
			fmt.Printf("%-14s %-18s %12.4f %12.4f %+8.2f%% %6.1f%%%s\n",
				w.Name, m.Name, a[m.Name], b[m.Name], 100*worse, 100*m.Bound, verdict)
		}
		const spread = "noise.window_spread_pct"
		fmt.Printf("%-14s %-18s %12.4f %12.4f\n", w.Name, spread, a[spread], b[spread])
		if a["error_rate"] != 0 || b["error_rate"] != 0 {
			fmt.Printf("%-14s error_rate is not 0\n", w.Name)
			code = 1
		}
	}
	return code
}

// parseMetrics reads the "metric <name> <value> <unit>" lines of a run.
func parseMetrics(out string) map[string]float64 {
	m := make(map[string]float64)
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 4 && f[0] == "metric" {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				m[f[1]] = v
			}
		}
	}
	return m
}
