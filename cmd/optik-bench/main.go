// optik-bench regenerates the figures of internal/figures as text tables:
// the paper's evaluation, the resize and churn scenarios, and the
// in-process store sweeps. The served system itself — over TCP, judged
// against BENCHMARK.json's bounds — is measured by bench/ instead.
//
// Usage:
//
//	optik-bench [flags] <figure>
//
// where <figure> is one of: fig5, fig7, fig9, fig10, fig11, fig12, stacks,
// resize, churn, server, ordered, conns, all. all runs every figure but
// conns, whose populations need a raised ulimit -n.
//
// Flags:
//
//	-threads  comma-separated thread counts to sweep (default 1,2,4,8,16)
//	-duration duration of each measured run (default 100ms; the paper
//	          uses 5s — pass -duration 5s -reps 11 for paper-scale runs)
//	-reps     runs per throughput cell, the median reported (default 3);
//	          latency sections are one sampled run
//	-json     also write every measured point (impl, threads, Mops/s,
//	          CAS/validation, latency tail) as a JSON document to the given
//	          file, so the perf trajectory can be tracked across changes
//	-churn-peak  peak element count of the churn figure (default 100000;
//	          CI passes a small peak to keep the sweep short)
//	-shards   comma-separated shard counts the server and ordered figures
//	          sweep (default 1,4,16; the 1-shard row is the unsharded
//	          baseline)
//	-conns    comma-separated connection populations the conns figure
//	          sweeps (default 64,1024,4096; populations above ~1k need a
//	          raised ulimit -n — the nightly adds 10000)
//	-active   comma-separated active-connection percentages the conns
//	          figure sweeps per population (default 100,5)
//
// Example:
//
//	optik-bench -threads 1,4,16 -duration 500ms -reps 5 -json BENCH_fig9.json fig9
//	optik-bench -threads 4,16 -shards 1,8 server
//	optik-bench -threads 4,16 -shards 1,8 ordered
//	optik-bench -duration 1s -conns 64,1024 -active 100,5 conns
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/optik-go/optik/internal/figures"
)

func main() {
	threadsFlag := flag.String("threads", "1,2,4,8,16", "comma-separated thread counts")
	durationFlag := flag.Duration("duration", 100*time.Millisecond, "duration per measured run")
	repsFlag := flag.Int("reps", 3, "runs per throughput cell (median reported)")
	jsonFlag := flag.String("json", "", "write machine-readable results (JSON) to this file")
	churnPeakFlag := flag.Int("churn-peak", 0, "peak element count for the churn figure (0 = default 100000)")
	shardsFlag := flag.String("shards", "1,4,16", "comma-separated shard counts for the server and ordered figures")
	connsFlag := flag.String("conns", "64,1024,4096", "comma-separated connection populations for the conns figure")
	activeFlag := flag.String("active", "100,5", "comma-separated active-connection percentages for the conns figure")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: optik-bench [flags] <fig5|fig7|fig9|fig10|fig11|fig12|stacks|resize|churn|server|ordered|conns|all>\n")
		fmt.Fprintf(os.Stderr, "(all runs every figure but conns, which needs a raised ulimit -n)\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	threads, err := parseThreads(*threadsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "optik-bench:", err)
		os.Exit(2)
	}
	shards, err := parseThreads(*shardsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "optik-bench: -shards:", err)
		os.Exit(2)
	}
	connCounts, err := parseThreads(*connsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "optik-bench: -conns:", err)
		os.Exit(2)
	}
	activePcts, err := parseThreads(*activeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "optik-bench: -active:", err)
		os.Exit(2)
	}
	opts := figures.RunOpts{
		Threads:    threads,
		Duration:   *durationFlag,
		Reps:       *repsFlag,
		Out:        os.Stdout,
		ChurnPeak:  *churnPeakFlag,
		Shards:     shards,
		Conns:      connCounts,
		ActivePcts: activePcts,
	}
	var rec *figures.Recorder
	if *jsonFlag != "" {
		rec = &figures.Recorder{}
		opts.Record = rec
	}

	figure := strings.ToLower(flag.Arg(0))
	figs := figures.Select(figure)
	if len(figs) == 0 {
		fmt.Fprintf(os.Stderr, "optik-bench: unknown figure %q\n", figure)
		flag.Usage()
		os.Exit(2)
	}
	for _, f := range figs {
		f.Run(opts)
	}

	if rec != nil {
		f, err := os.Create(*jsonFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "optik-bench:", err)
			os.Exit(1)
		}
		err = rec.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "optik-bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "optik-bench: wrote %d data points to %s\n", len(rec.Rows), *jsonFlag)
	}
}

func parseThreads(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("invalid thread count %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}
