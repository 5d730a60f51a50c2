// bench-diff compares two machine-readable benchmark documents written by
// optik-bench -json and reports throughput regressions: the nightly job
// archives its BENCH_*.json, and this tool diffs each run against the
// previous one.
//
// Usage:
//
//	bench-diff [-threshold 15] [-fail] old.json new.json
//
// Rows are joined on (figure, workload, impl, threads) and compared on
// Mops/s. Every matched row whose throughput dropped by more than
// threshold percent is reported — as a plain line, and as a GitHub Actions
// "::warning::" annotation when running under Actions (GITHUB_ACTIONS=true)
// — so regressions surface on the commit without failing the build on CI
// noise. Pass -fail to exit non-zero on any regression instead (for local
// gating runs with longer durations, where the numbers are trustworthy).
//
// Exit status: 0 on success (annotating mode), 1 on any regression with
// -fail, 2 on usage or input errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// doc mirrors the JSON shape of figures.Recorder.WriteJSON; unknown fields
// (latency tails, reclamation counters) are ignored — the diff is about
// throughput.
type doc struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	Rows        []row  `json:"rows"`
}

type row struct {
	Figure   string  `json:"figure"`
	Workload string  `json:"workload"`
	Impl     string  `json:"impl"`
	Threads  int     `json:"threads"`
	Mops     float64 `json:"mops"`
	// MaxProcs joins as a guard, not a key: rows that both carry it must
	// agree, or the comparison is across differently-sized runners and is
	// skipped with a note instead of reported as a phantom regression.
	// Rows without it (older baselines, non-server figures) join as before.
	MaxProcs int `json:"maxprocs"`
}

// key identifies a data point across runs.
type key struct {
	figure, workload, impl string
	threads                int
}

func main() {
	threshold := flag.Float64("threshold", 15, "regression threshold in percent")
	failFlag := flag.Bool("fail", false, "exit non-zero on any regression (default: annotate only)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bench-diff [-threshold pct] [-fail] old.json new.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	old, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-diff:", err)
		os.Exit(2)
	}
	cur, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-diff:", err)
		os.Exit(2)
	}

	base := map[key]row{}
	for _, r := range old.Rows {
		base[key{r.Figure, r.Workload, r.Impl, r.Threads}] = r
	}

	annotate := os.Getenv("GITHUB_ACTIONS") == "true"
	matched, regressions, skipped := 0, 0, 0
	for _, r := range cur.Rows {
		b, ok := base[key{r.Figure, r.Workload, r.Impl, r.Threads}]
		was := b.Mops
		if !ok || was <= 0 || r.Mops <= 0 {
			continue // new row, removed row, or a non-throughput point
		}
		if b.MaxProcs != 0 && r.MaxProcs != 0 && b.MaxProcs != r.MaxProcs {
			skipped++
			fmt.Printf("skipping %s / %s / %s @ %d threads: maxprocs %d vs %d, not comparable\n",
				r.Figure, r.Workload, r.Impl, r.Threads, b.MaxProcs, r.MaxProcs)
			continue
		}
		matched++
		deltaPct := (r.Mops - was) / was * 100
		if deltaPct < -*threshold {
			regressions++
			msg := fmt.Sprintf("%s / %s / %s @ %d threads: %.3f -> %.3f Mops/s (%.1f%%)",
				r.Figure, r.Workload, r.Impl, r.Threads, was, r.Mops, deltaPct)
			fmt.Println("REGRESSION:", msg)
			if annotate {
				fmt.Printf("::warning title=bench regression::%s\n", msg)
			}
		}
	}
	fmt.Printf("bench-diff: %d rows matched (%s -> %s), %d regressed beyond %.0f%%, %d skipped on maxprocs\n",
		matched, old.GeneratedAt, cur.GeneratedAt, regressions, *threshold, skipped)
	if regressions > 0 && *failFlag {
		os.Exit(1)
	}
}

func load(path string) (*doc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var d doc
	if err := json.NewDecoder(f).Decode(&d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}
