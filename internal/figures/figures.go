// Package figures defines the experiments that bench/ (the served
// system's judge) cannot run and renders them as text tables: the
// paper's evaluation (Figures 5, 7, 9–12 and the stacks; paper.go) with
// the same rows and series the paper reports, and the sweeps beyond it
// (sweeps.go) — the ds-level resize and churn scenarios, threads × shard
// counts for the server and ordered stores, connection populations ×
// conn modes for conns.
//
// A figure is data: a list of panels, each a table of cells — one per
// series and thread count — where a cell measures one Row. One printer
// runs every table, taking each cell's median over RunOpts.Reps, and one
// prints the sampled latency sections. cmd/optik-bench and the root
// bench_test.go target both walk these definitions, so each panel is
// defined once.
package figures

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/optik-go/optik/internal/stats"
	"github.com/optik-go/optik/internal/workload"
)

// RunOpts controls scale: thread counts to sweep, per-run duration and
// repetitions (the paper uses 11 × 5 s; defaults here are laptop-sized).
type RunOpts struct {
	Threads  []int
	Duration time.Duration
	// Reps is how many times each throughput cell runs; the run with the
	// median Mops/s is the one printed and recorded. A latency section is
	// one sampled run.
	Reps int
	Out  io.Writer
	// Record, when non-nil, additionally collects every measured data
	// point for machine-readable output (cmd/optik-bench -json).
	Record *Recorder
	// ChurnPeak overrides the churn figure's peak element count (0 keeps
	// the default); CI uses a small peak to keep the sweep short.
	ChurnPeak int
	// Shards are the shard counts the server and ordered figures sweep
	// (default 1, 4, 16 — the 1-shard row is the unsharded baseline
	// every other row is read against).
	Shards []int
	// Conns are the connection populations the conns figure sweeps
	// (default 64, 1024, 4096; the nightly adds 10000 — mind ulimit -n).
	Conns []int
	// ActivePcts are the active-connection percentages the conns figure
	// sweeps per population (default 100, 5: all-active parity check and
	// the mostly-idle C10K shape).
	ActivePcts []int
}

// Row is one measured data point in the shape the -json output emits, so
// the perf trajectory can be tracked across changes. Figure, Workload,
// Impl and Threads are its join key.
type Row struct {
	Figure   string  `json:"figure"`
	Workload string  `json:"workload,omitempty"`
	Impl     string  `json:"impl"`
	Threads  int     `json:"threads"`
	Mops     float64 `json:"mops"`
	// CASPerValidation is only set by the lock figure (Figure 5).
	CASPerValidation float64 `json:"cas_per_validation,omitempty"`
	// Per-op latency tail (ns), set by the churn and resize-latency rows:
	// migration stalls live here, not in the throughput average.
	P50Ns float64 `json:"p50_ns,omitempty"`
	P99Ns float64 `json:"p99_ns,omitempty"`
	MaxNs float64 `json:"max_ns,omitempty"`
	// FinalBuckets is set by the churn figure for resizable structures:
	// proof the table handed its memory back.
	FinalBuckets int `json:"final_buckets,omitempty"`
	// NodesRetired/NodesReused are the churn figure's chain-node
	// reclamation counters for structures that recycle through qsbr:
	// proof steady-state churn reuses nodes instead of re-allocating.
	NodesRetired uint64 `json:"nodes_retired,omitempty"`
	NodesReused  uint64 `json:"nodes_reused,omitempty"`
	// MaxProcs is set by the server/ordered/conns rows: GOMAXPROCS at
	// measurement time, so rows from differently-sized runners never join
	// silently.
	MaxProcs int `json:"maxprocs,omitempty"`
	// ConnMode is set by the conns rows: which connection-driving mode the
	// server ran ("goroutine" or "poller"). It rides in the impl name too,
	// so the bench-diff join never compares across modes.
	ConnMode string `json:"connmode,omitempty"`
	// BuffersResident is the conns rows' RSS proxy: bytes of pooled
	// connection buffers checked out server-side at the sample point.
	BuffersResident int64 `json:"buffers_resident,omitempty"`
	// ConnsShed counts connections the server shed during the run.
	ConnsShed int64 `json:"conns_shed,omitempty"`
}

// Recorder accumulates rows for machine-readable output. The figure
// runners drive it from a single goroutine; it needs no locking.
type Recorder struct {
	Rows []Row
}

// add appends a row; a nil recorder records nothing, so call sites don't
// need guards.
func (r *Recorder) add(row Row) {
	if r != nil {
		r.Rows = append(r.Rows, row)
	}
}

// WriteJSON writes the recorded rows plus run metadata as an indented JSON
// document.
func (r *Recorder) WriteJSON(w io.Writer) error {
	doc := struct {
		GeneratedAt string `json:"generated_at"`
		GoVersion   string `json:"go_version"`
		MaxProcs    int    `json:"maxprocs"`
		Rows        []Row  `json:"rows"`
	}{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		MaxProcs:    runtime.GOMAXPROCS(0),
		Rows:        r.Rows,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// DefaultThreads is the default sweep.
var DefaultThreads = []int{1, 2, 4, 8, 16}

// Normalize fills zero fields with defaults.
func (o RunOpts) Normalize() RunOpts {
	if len(o.Threads) == 0 {
		o.Threads = DefaultThreads
	}
	if o.Duration <= 0 {
		o.Duration = 100 * time.Millisecond
	}
	if o.Reps <= 0 {
		o.Reps = 3
	}
	return o
}

// A Figure is one of optik-bench's figures: its panels, built for a
// run's (normalized) options.
type Figure struct {
	Name   string
	Panels func(o RunOpts) []Panel
}

// A Panel is one section of a figure: a throughput table or a latency
// section.
type Panel struct {
	// Figure and Workload key the panel's rows, with the series as Impl
	// and the thread count as Threads. A latency section without a
	// Figure is printed but not recorded.
	Figure, Workload string
	// Title heads the printed section.
	Title string
	// Series name the panel's columns.
	Series []string
	// Threads, when set, replaces the run's thread sweep: the latency
	// sections' one thread count, a conns cell's active connections.
	Threads []int
	// Cell measures one throughput cell; the table printer keeps the
	// median of Reps runs.
	Cell func(series, threads int) Row
	// Sample, set instead of Cell, makes the panel a latency section: one
	// sampled run per series, printed as the summary lines it returns.
	Sample func(series, threads int) (Row, []string)
}

// Select returns the figures an optik-bench argument names: the figure
// of that name, or, for "all", every figure but conns — its populations
// need a raised fd limit (ulimit -n), so it runs only when named.
func Select(name string) []Figure {
	var out []Figure
	for _, figs := range [][]Figure{Paper, Sweeps} {
		for _, f := range figs {
			if f.Name == name || name == "all" && f.Name != "conns" {
				out = append(out, f)
			}
		}
	}
	return out
}

// Run prints every panel of f to o.Out and records its rows into
// o.Record.
func (f Figure) Run(o RunOpts) {
	o = o.Normalize()
	for _, p := range f.Panels(o) {
		if p.Sample != nil {
			o.latency(p)
		} else {
			o.table(p)
		}
	}
}

// table prints a throughput panel as a threads × series grid, each cell
// the median of o.Reps runs, and records every cell.
func (o RunOpts) table(p Panel) {
	fmt.Fprintf(o.Out, "# %s\n%-8s", p.Title, "threads")
	for _, name := range p.Series {
		fmt.Fprintf(o.Out, "%18s", name)
	}
	fmt.Fprintln(o.Out)
	for _, th := range o.threads(p) {
		fmt.Fprintf(o.Out, "%-8d", th)
		for s := range p.Series {
			row := workload.MedianOf(o.Reps, func() Row { return p.Cell(s, th) },
				func(r Row) float64 { return r.Mops })
			fmt.Fprintf(o.Out, "%18s", cellText(row))
			o.Record.add(p.key(row, s, th))
		}
		fmt.Fprintln(o.Out)
	}
	fmt.Fprintln(o.Out)
}

// latency prints a latency section: one sampled run per series, its
// summary lines prefixed with the series name.
func (o RunOpts) latency(p Panel) {
	fmt.Fprintf(o.Out, "# %s\n", p.Title)
	for _, th := range o.threads(p) {
		for s, name := range p.Series {
			row, lines := p.Sample(s, th)
			for _, line := range lines {
				fmt.Fprintf(o.Out, "%-16s %s\n", name, line)
			}
			if p.Figure != "" {
				o.Record.add(p.key(row, s, th))
			}
		}
	}
	fmt.Fprintln(o.Out)
}

func (o RunOpts) threads(p Panel) []int {
	if p.Threads != nil {
		return p.Threads
	}
	return o.Threads
}

// key stamps a cell's row with the panel's join key.
func (p Panel) key(r Row, series, threads int) Row {
	r.Figure, r.Workload, r.Impl, r.Threads = p.Figure, p.Workload, p.Series[series], threads
	return r
}

// cellText renders a throughput cell: Mops/s, then the second measure of
// the two figures whose titles name one — CAS per validation (Figure 5)
// and resident buffer KiB (conns).
func cellText(r Row) string {
	switch {
	case r.CASPerValidation > 0:
		return fmt.Sprintf("%.3f / %.2f", r.Mops, r.CASPerValidation)
	case r.ConnMode != "":
		return fmt.Sprintf("%.3f / %d", r.Mops, r.BuffersResident/1024)
	}
	return fmt.Sprintf("%.3f", r.Mops)
}

// latencyRow is a row carrying a run's throughput and its latency tail.
func latencyRow(mops float64, s stats.Summary) Row {
	return Row{Mops: mops, P50Ns: s.P50, P99Ns: s.P99, MaxNs: s.Max}
}

// kindLine renders one named latency summary of a latency section.
func kindLine(kind string, s stats.Summary) string {
	return fmt.Sprintf("%-8s %s", kind, s)
}

// Named couples a graph key with a factory for the structure under test.
type Named[T any] struct {
	Name string
	New  func() T
}

// names lists the series names of a registry.
func names[T any](algos []Named[T]) []string {
	out := make([]string, len(algos))
	for i, a := range algos {
		out[i] = a.Name
	}
	return out
}
