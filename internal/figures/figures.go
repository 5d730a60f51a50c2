// Package figures defines the experiments that bench/ (the served
// system's judge) cannot run, one entry per figure, and renders them as
// text tables: the paper's evaluation (Figures 5, 7, 9–12 and the
// stacks) with the same rows/series the paper reports, the ds-level
// resize and churn scenarios, and the in-process sweeps of the store —
// threads × shard counts for the server and ordered figures, connection
// populations × conn modes for conns. Both the root bench_test.go
// targets and cmd/optik-bench drive these definitions, so the figure
// surface has a single source of truth.
package figures

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/ds/arraymap"
	"github.com/optik-go/optik/ds/hashmap"
	"github.com/optik-go/optik/ds/list"
	"github.com/optik-go/optik/ds/queue"
	"github.com/optik-go/optik/ds/skiplist"
	"github.com/optik-go/optik/ds/stack"
	"github.com/optik-go/optik/internal/workload"
	"github.com/optik-go/optik/server"
	"github.com/optik-go/optik/store"
)

// RunOpts controls scale: thread counts to sweep, per-run duration and
// repetitions (the paper uses 11 × 5 s; defaults here are laptop-sized).
type RunOpts struct {
	Threads  []int
	Duration time.Duration
	Reps     int
	Out      io.Writer
	// Record, when non-nil, additionally collects every measured data
	// point for machine-readable output (cmd/optik-bench -json).
	Record *Recorder
	// ChurnPeak overrides the churn figure's peak element count (0 keeps
	// the default); CI uses a small peak to keep the sweep short.
	ChurnPeak int
	// Shards are the shard counts the server figure sweeps (default
	// 1, 4, 16 — the 1-shard row is the unsharded baseline every other
	// row is read against).
	Shards []int
	// BatchPct is the server figure's batched-request percentage
	// (default 20); its batch size is fixed at 16 keys.
	BatchPct int
	// Conns are the connection populations the conns figure sweeps
	// (default 64, 1024, 4096; the nightly adds 10000 — mind ulimit -n).
	Conns []int
	// ActivePcts are the active-connection percentages the conns figure
	// sweeps per population (default 100, 5: all-active parity check and
	// the mostly-idle C10K shape).
	ActivePcts []int
}

// Row is one measured data point in the shape the -json output emits, so
// the perf trajectory can be tracked across changes.
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

// NamedSet couples a graph key with a Set factory.
type NamedSet struct {
	Name string
	New  func() ds.Set
}

// NamedQueue couples a graph key with a Queue factory.
type NamedQueue struct {
	Name string
	New  func() ds.Queue
}

// SetWorkload is one panel of a set-structure figure.
type SetWorkload struct {
	Label       string
	InitialSize int
	UpdatePct   int
	Zipf        bool
	// Buckets configures hash tables (paper: buckets == initial size).
	Buckets int
}

// ListAlgos returns the Figure-9 series in graph order.
func ListAlgos() []NamedSet {
	return []NamedSet{
		{"harris", func() ds.Set { return list.NewHarris() }},
		{"lazy", func() ds.Set { return list.NewLazy() }},
		{"mcs-gl-opt", func() ds.Set { return list.NewMCSGL() }},
		{"optik-gl", func() ds.Set { return list.NewOptikGL() }},
		{"optik", func() ds.Set { return list.NewOptik() }},
		{"optik-cache", func() ds.Set { return list.NewOptik() }}, // handles via HandleFor
		{"lazy-cache", func() ds.Set { return list.NewLazy() }},
	}
}

// listAlgoNoCache returns factories whose handles do NOT enable caching;
// the plain "optik"/"lazy" series must not pick up handles. The workload
// driver enables caching through ds.HandleFor, so the cache-less series
// wrap the structure to hide the Handled interface.
type noHandle struct{ ds.Set }

// hideHandles prevents ds.HandleFor from discovering node-cache handles on
// series that must run without them.
func hideHandles(n NamedSet) NamedSet {
	inner := n.New
	return NamedSet{Name: n.Name, New: func() ds.Set { return noHandle{inner()} }}
}

// Fig9ListAlgos returns the Figure-9 series with caching enabled only on
// the -cache series.
func Fig9ListAlgos() []NamedSet {
	algos := ListAlgos()
	out := make([]NamedSet, 0, len(algos))
	for _, a := range algos {
		switch a.Name {
		case "optik-cache", "lazy-cache":
			out = append(out, a)
		default:
			out = append(out, hideHandles(a))
		}
	}
	return out
}

// HashAlgos returns the Figure-10 series in graph order. buckets follows
// the paper: one bucket per initial element.
func HashAlgos(buckets int) []NamedSet {
	return []NamedSet{
		{"lazy-gl", func() ds.Set { return hashmap.NewLazyGL(buckets) }},
		{"java", func() ds.Set { return hashmap.NewJava(buckets, 0) }},
		{"java-optik", func() ds.Set { return hashmap.NewJavaOptik(buckets, 0) }},
		{"optik", func() ds.Set { return hashmap.NewOptik(buckets) }},
		{"optik-gl", func() ds.Set { return hashmap.NewOptikGL(buckets) }},
		{"optik-map", func() ds.Set { return hashmap.NewOptikMap(buckets, 0) }},
	}
}

// ResizeAlgos returns the resize-under-load series: the fixed-capacity
// tables built at the ramp's start size versus the resizable slab table.
// (OptikMap is excluded: its fixed-capacity buckets reject insertions once
// full, so it cannot absorb the ramp at all.)
func ResizeAlgos(startBuckets int) []NamedSet {
	return []NamedSet{
		{"lazy-gl-fixed", func() ds.Set { return hashmap.NewLazyGL(startBuckets) }},
		{"optik-gl-fixed", func() ds.Set { return hashmap.NewOptikGL(startBuckets) }},
		{"slab-fixed", func() ds.Set { return hashmap.NewSlab(startBuckets) }},
		{"resizable", func() ds.Set { return hashmap.NewResizable(startBuckets) }},
	}
}

// SkiplistAlgos returns the Figure-11 series in graph order.
func SkiplistAlgos() []NamedSet {
	return []NamedSet{
		{"fraser", func() ds.Set { return skiplist.NewFraser() }},
		{"herlihy", func() ds.Set { return skiplist.NewHerlihy() }},
		{"herl-optik", func() ds.Set { return skiplist.NewHerlihyOptik() }},
		{"optik1", func() ds.Set { return skiplist.NewOptik1() }},
		{"optik2", func() ds.Set { return skiplist.NewOptik2() }},
	}
}

// QueueAlgos returns the Figure-12 series in graph order.
func QueueAlgos() []NamedQueue {
	return []NamedQueue{
		{"ms-lf", func() ds.Queue { return queue.NewMSLF() }},
		{"ms-lb", func() ds.Queue { return queue.NewMSLB() }},
		{"optik0", func() ds.Queue { return queue.NewOptik0() }},
		{"optik1", func() ds.Queue { return queue.NewOptik1() }},
		{"optik2", func() ds.Queue { return queue.NewOptik2() }},
		{"optik3", func() ds.Queue { return queue.NewOptikVictim(0) }},
	}
}

// MapAlgos returns the Figure-7 series.
func MapAlgos(capacity int) []NamedSet {
	return []NamedSet{
		{"mcs", func() ds.Set { return arraymap.NewMCS(capacity) }},
		{"optik", func() ds.Set { return arraymap.NewOptik(capacity) }},
	}
}

// StackAlgos returns the §5.5 series.
func StackAlgos() []struct {
	Name string
	New  func() ds.Stack
} {
	return []struct {
		Name string
		New  func() ds.Stack
	}{
		{"treiber", func() ds.Stack { return stack.NewTreiber() }},
		{"optik", func() ds.Stack { return stack.NewOptik() }},
	}
}

// runSetSeries sweeps threads × algorithms for one workload and prints a
// Mops/s table row per thread count.
func runSetSeries(o RunOpts, title string, wl SetWorkload, algos []NamedSet) {
	fmt.Fprintf(o.Out, "# %s — %s (%d elements, %d%% updates%s)\n",
		title, wl.Label, wl.InitialSize, wl.UpdatePct, zipfTag(wl.Zipf))
	fmt.Fprintf(o.Out, "%-8s", "threads")
	for _, a := range algos {
		fmt.Fprintf(o.Out, "%12s", a.Name)
	}
	fmt.Fprintln(o.Out)
	for _, th := range o.Threads {
		fmt.Fprintf(o.Out, "%-8d", th)
		for _, a := range algos {
			cfg := workload.Config{
				Threads:     th,
				Duration:    o.Duration,
				InitialSize: wl.InitialSize,
				UpdatePct:   wl.UpdatePct,
				Zipf:        wl.Zipf,
			}
			res := workload.MedianOf(o.Reps, func() workload.Result {
				return workload.RunSet(cfg, a.New)
			})
			fmt.Fprintf(o.Out, "%12.3f", res.Mops)
			o.Record.add(Row{Figure: title, Workload: wl.Label, Impl: a.Name, Threads: th, Mops: res.Mops})
		}
		fmt.Fprintln(o.Out)
	}
	fmt.Fprintln(o.Out)
}

func zipfTag(z bool) string {
	if z {
		return ", zipf a=0.9"
	}
	return ""
}

// Fig5 regenerates Figure 5: validated single-lock throughput and CAS per
// validation for ttas / optik-ticket / optik-versioned.
func Fig5(o RunOpts) {
	o = o.Normalize()
	fmt.Fprintln(o.Out, "# Figure 5 — locking and validation with and without OPTIK locks")
	fmt.Fprintf(o.Out, "%-8s", "threads")
	for _, impl := range workload.LockImpls {
		fmt.Fprintf(o.Out, "%24s", string(impl)+" Mops")
	}
	for _, impl := range workload.LockImpls {
		fmt.Fprintf(o.Out, "%24s", string(impl)+" CAS/val")
	}
	fmt.Fprintln(o.Out)
	for _, th := range o.Threads {
		fmt.Fprintf(o.Out, "%-8d", th)
		results := make([]workload.LockResult, len(workload.LockImpls))
		for i, impl := range workload.LockImpls {
			results[i] = workload.RunLock(workload.LockConfig{Threads: th, Duration: o.Duration}, impl)
			o.Record.add(Row{
				Figure: "Figure 5", Workload: "locks", Impl: string(impl), Threads: th,
				Mops: results[i].Mops, CASPerValidation: results[i].CASPerValidation,
			})
		}
		for _, r := range results {
			fmt.Fprintf(o.Out, "%24.3f", r.Mops)
		}
		for _, r := range results {
			fmt.Fprintf(o.Out, "%24.2f", r.CASPerValidation)
		}
		fmt.Fprintln(o.Out)
	}
	fmt.Fprintln(o.Out)
}

// Fig7 regenerates Figure 7: lock-based vs OPTIK-based array map on the
// small (4 elements) and large (1024 elements) workloads, plus the
// latency-distribution boxplots at 10 threads.
func Fig7(o RunOpts) {
	o = o.Normalize()
	for _, wl := range []SetWorkload{
		{Label: "Small map", InitialSize: 4, UpdatePct: 10},
		{Label: "Large map", InitialSize: 1024, UpdatePct: 10},
	} {
		algos := MapAlgos(mapCapacityFor(wl.InitialSize))
		runSetSeries(o, "Figure 7", wl, algos)
	}
	// Latency boxplots at 10 threads on the small map.
	fmt.Fprintln(o.Out, "# Figure 7 (right) — latency distribution, small map, 10 threads (ns)")
	for _, a := range MapAlgos(mapCapacityFor(4)) {
		cfg := workload.Config{
			Threads: 10, Duration: o.Duration, InitialSize: 4, UpdatePct: 10,
			SampleLatency: true,
		}
		res := workload.RunSet(cfg, a.New)
		for k := workload.SearchSuc; k <= workload.DeleteFal; k++ {
			fmt.Fprintf(o.Out, "%-8s %-9s %s\n", a.Name, k, res.Latency[k])
		}
	}
	fmt.Fprintln(o.Out)
}

// mapCapacityFor sizes the array map exactly to the initial element count,
// as in the paper: the map starts full, so insertions only succeed after a
// deletion frees a slot (on the 4-element map "only 25% of the updates are
// successful").
func mapCapacityFor(initial int) int { return initial }

// Fig9 regenerates Figure 9: linked lists over five workloads.
func Fig9(o RunOpts) {
	o = o.Normalize()
	for _, wl := range []SetWorkload{
		{Label: "Large", InitialSize: 8192, UpdatePct: 20},
		{Label: "Medium", InitialSize: 1024, UpdatePct: 20},
		{Label: "Small", InitialSize: 64, UpdatePct: 20},
		{Label: "Large skewed", InitialSize: 8192, UpdatePct: 20, Zipf: true},
		{Label: "Small skewed", InitialSize: 64, UpdatePct: 20, Zipf: true},
	} {
		runSetSeries(o, "Figure 9", wl, Fig9ListAlgos())
	}
}

// Fig10 regenerates Figure 10: hash tables on the medium and small-skewed
// workloads (buckets = initial size).
func Fig10(o RunOpts) {
	o = o.Normalize()
	for _, wl := range []SetWorkload{
		{Label: "Medium", InitialSize: 8192, UpdatePct: 20, Buckets: 8192},
		{Label: "Small skewed", InitialSize: 512, UpdatePct: 20, Zipf: true, Buckets: 512},
	} {
		runSetSeries(o, "Figure 10", wl, HashAlgos(wl.Buckets))
	}
}

// Fig11 regenerates Figure 11: skip lists on the large-skewed and
// small-skewed workloads.
func Fig11(o RunOpts) {
	o = o.Normalize()
	for _, wl := range []SetWorkload{
		{Label: "Large skewed", InitialSize: 65536, UpdatePct: 20, Zipf: true},
		{Label: "Small skewed", InitialSize: 1024, UpdatePct: 20, Zipf: true},
	} {
		runSetSeries(o, "Figure 11", wl, SkiplistAlgos())
	}
}

// Fig12 regenerates Figure 12: queues over the three mixes, plus the
// enqueue/dequeue latency boxplots at 10 threads on the stable mix.
func Fig12(o RunOpts) {
	o = o.Normalize()
	mixes := []struct {
		Label      string
		EnqueuePct int
	}{
		{"Decreasing size (40% enq)", 40},
		{"Stable size (50% enq)", 50},
		{"Increasing size (60% enq)", 60},
	}
	for _, mix := range mixes {
		fmt.Fprintf(o.Out, "# Figure 12 — queues, %s, init 65536\n", mix.Label)
		fmt.Fprintf(o.Out, "%-8s", "threads")
		for _, a := range QueueAlgos() {
			fmt.Fprintf(o.Out, "%12s", a.Name)
		}
		fmt.Fprintln(o.Out)
		for _, th := range o.Threads {
			fmt.Fprintf(o.Out, "%-8d", th)
			for _, a := range QueueAlgos() {
				cfg := workload.QueueConfig{
					Threads: th, Duration: o.Duration,
					InitialSize: 65536, EnqueuePct: mix.EnqueuePct,
				}
				res := workload.MedianOfQueue(o.Reps, func() workload.QueueResult {
					return workload.RunQueue(cfg, a.New)
				})
				fmt.Fprintf(o.Out, "%12.3f", res.Mops)
				o.Record.add(Row{Figure: "Figure 12", Workload: mix.Label, Impl: a.Name, Threads: th, Mops: res.Mops})
			}
			fmt.Fprintln(o.Out)
		}
		fmt.Fprintln(o.Out)
	}
	fmt.Fprintln(o.Out, "# Figure 12 (right) — enq/deq latency, stable mix, 10 threads (ns)")
	for _, a := range QueueAlgos() {
		cfg := workload.QueueConfig{
			Threads: 10, Duration: o.Duration,
			InitialSize: 65536, EnqueuePct: 50, SampleLatency: true,
		}
		res := workload.RunQueue(cfg, a.New)
		fmt.Fprintf(o.Out, "%-8s enqueue  %s\n", a.Name, res.EnqLatency)
		fmt.Fprintf(o.Out, "%-8s dequeue  %s\n", a.Name, res.DeqLatency)
	}
	fmt.Fprintln(o.Out)
}

// FigResize runs the resize-under-load scenario (beyond the paper, which
// only sizes tables statically): structures start with 1k elements and 1k
// buckets, then absorb an insert-heavy ramp to 1M elements with 10%
// searches mixed in. Fixed-bucket tables degrade to thousand-node chains;
// the resizable slab migrates buckets concurrently with the traffic.
func FigResize(o RunOpts) { figResize(o, 1000, 1_000_000) }

// figResize is FigResize with the scale exposed for fast smoke tests.
func figResize(o RunOpts, start, target int) {
	o = o.Normalize()
	algos := ResizeAlgos(start)
	wlLabel := fmt.Sprintf("ramp %d to %d", start, target)
	fmt.Fprintf(o.Out, "# Resize — insert-heavy %s, 10%% searches (Mops/s over the whole ramp)\n", wlLabel)
	fmt.Fprintf(o.Out, "%-8s", "threads")
	for _, a := range algos {
		fmt.Fprintf(o.Out, "%16s", a.Name)
	}
	fmt.Fprintln(o.Out)
	for _, th := range o.Threads {
		fmt.Fprintf(o.Out, "%-8d", th)
		for _, a := range algos {
			res := workload.RunRamp(workload.RampConfig{
				Threads: th, StartSize: start, TargetSize: target, SearchPct: 10,
			}, a.New)
			fmt.Fprintf(o.Out, "%16.3f", res.Mops)
			o.Record.add(Row{Figure: "Resize", Workload: wlLabel, Impl: a.Name, Threads: th, Mops: res.Mops})
		}
		fmt.Fprintln(o.Out)
	}
	fmt.Fprintln(o.Out)
	// A separate sampled pass at the highest thread count keeps the
	// throughput table above comparable across commits while making
	// migration stalls visible: the resizable table's p50 should match
	// the fixed slab's, with the migration cost confined to the tail.
	th := o.Threads[len(o.Threads)-1]
	fmt.Fprintf(o.Out, "# Resize latency — per-op ns, %s, %d threads\n", wlLabel, th)
	for _, a := range algos {
		res := workload.RunRamp(workload.RampConfig{
			Threads: th, StartSize: start, TargetSize: target, SearchPct: 10,
			SampleLatency: true,
		}, a.New)
		fmt.Fprintf(o.Out, "%-16s %s\n", a.Name, res.Latency)
		o.Record.add(Row{
			Figure: "Resize latency", Workload: wlLabel, Impl: a.Name, Threads: th,
			Mops: res.Mops, P50Ns: res.Latency.P50, P99Ns: res.Latency.P99, MaxNs: res.Latency.Max,
		})
	}
	fmt.Fprintln(o.Out)
}

// FigChurn runs the delete-heavy churn scenario the resize figure cannot
// see: each cycle grows the table to a peak and drains it to a trough
// (peak/16), with 30% searches mixed in throughout. Fixed tables merely
// survive it; the resizable table must grow and then hand its buckets
// back, with the migration cost visible in the per-op latency tail
// (p50/p99/max) rather than hidden in the throughput average.
func FigChurn(o RunOpts) {
	peak := o.ChurnPeak
	if peak <= 0 {
		peak = 100_000
	}
	figChurn(o, peak)
}

// figChurn is FigChurn with the scale exposed for fast smoke tests.
func figChurn(o RunOpts, peak int) {
	o = o.Normalize()
	start := peak / 8
	if start < 1 {
		start = 1
	}
	trough := peak / 16
	algos := ResizeAlgos(start)
	// The steady-op count is part of the label on purpose: rows measured
	// under the 3-phase cycle must not join against pre-steady-phase
	// baselines in bench-diff — the workload definition changed, not the
	// implementations.
	wlLabel := fmt.Sprintf("churn %d/%d steady %d", peak, trough, peak)
	fmt.Fprintf(o.Out, "# Churn — grow to %d, steady read-only ×%d ops, drain to %d, ×2 cycles, 30%% searches (Mops/s; per-op ns tail)\n",
		peak, peak, trough)
	fmt.Fprintf(o.Out, "%-8s", "threads")
	for _, a := range algos {
		fmt.Fprintf(o.Out, "%16s", a.Name)
	}
	fmt.Fprintln(o.Out)
	last := map[string]workload.ChurnResult{}
	for _, th := range o.Threads {
		fmt.Fprintf(o.Out, "%-8d", th)
		for _, a := range algos {
			res := workload.RunChurn(workload.ChurnConfig{
				Threads: th, PeakSize: peak, TroughSize: trough, Cycles: 2,
				SearchPct: 30, SteadyOps: peak, SampleLatency: true,
			}, a.New)
			fmt.Fprintf(o.Out, "%16.3f", res.Mops)
			o.Record.add(Row{
				Figure: "Churn", Workload: wlLabel, Impl: a.Name, Threads: th, Mops: res.Mops,
				P50Ns: res.Latency.P50, P99Ns: res.Latency.P99, MaxNs: res.Latency.Max,
				FinalBuckets: res.FinalBuckets,
				NodesRetired: res.NodesRetired, NodesReused: res.NodesReused,
			})
			last[a.Name] = res
		}
		fmt.Fprintln(o.Out)
	}
	fmt.Fprintln(o.Out)
	th := o.Threads[len(o.Threads)-1]
	fmt.Fprintf(o.Out, "# Churn latency — per-op ns by phase, %d threads\n", th)
	for _, a := range algos {
		res := last[a.Name]
		fmt.Fprintf(o.Out, "%-16s %-8s %s\n", a.Name, "all", res.Latency)
		fmt.Fprintf(o.Out, "%-16s %-8s %s\n", a.Name, "grow", res.GrowLatency)
		fmt.Fprintf(o.Out, "%-16s %-8s %s\n", a.Name, "drain", res.DrainLatency)
		fmt.Fprintf(o.Out, "%-16s %-8s %s\n", a.Name, "search", res.SearchLatency)
		fmt.Fprintf(o.Out, "%-16s %-8s %s\n", a.Name, "steady", res.SteadyLatency)
		if res.FinalBuckets > 0 {
			fmt.Fprintf(o.Out, "%-16s final buckets %d after %d resizes, quiesce %s\n",
				a.Name, res.FinalBuckets, res.Resizes, res.Quiesces)
		}
		if res.NodesRetired > 0 {
			fmt.Fprintf(o.Out, "%-16s nodes retired %d reclaimed %d reused %d\n",
				a.Name, res.NodesRetired, res.NodesReclaimed, res.NodesReused)
		}
	}
	fmt.Fprintln(o.Out)
}

// FigServer runs the sharded-store scenario (beyond the paper: its tables
// are the building block, the store is the system the ROADMAP builds
// toward): a zipfian GET/SET/DEL request stream with a batched fraction,
// swept across thread counts × shard counts. One row per shard count puts
// the scaling axis in the table itself — the 1-shard row is the unsharded
// table behind the same API, so any separation between rows is what
// sharding buys on this machine. A second pass at the top thread count
// samples per-op latency split by request kind, where the batch
// amortization and the per-shard migration containment actually show.
func FigServer(o RunOpts) {
	o = o.Normalize()
	shards := normalizeShards(o.Shards)
	batchPct := o.BatchPct
	if batchPct <= 0 {
		batchPct = 20
	}
	const initial = 65536
	cfg := workload.ServerConfig{
		Duration:    o.Duration,
		InitialSize: initial,
		SetPct:      8,
		DelPct:      2,
		BatchPct:    batchPct,
		BatchSize:   16,
	}
	wlLabel := fmt.Sprintf("zipf get90/set8/del2 batch%d%%x16 init %d", batchPct, initial)
	fmt.Fprintf(o.Out, "# Server — store.Store, %s (Mops/s)\n", wlLabel)
	fmt.Fprintf(o.Out, "%-8s", "threads")
	for _, sh := range shards {
		fmt.Fprintf(o.Out, "%16s", implName(sh))
	}
	fmt.Fprintln(o.Out)
	for _, th := range o.Threads {
		fmt.Fprintf(o.Out, "%-8d", th)
		for _, sh := range shards {
			c := cfg
			c.Threads = th
			res := workload.RunServer(c, storeFactory(sh, initial))
			fmt.Fprintf(o.Out, "%16.3f", res.Mops)
			o.Record.add(Row{
				Figure: "Server", Workload: wlLabel, Impl: implName(sh), Threads: th,
				Mops: res.Mops, FinalBuckets: res.FinalBuckets,
				NodesRetired: res.NodesRetired, NodesReused: res.NodesReused,
				MaxProcs: res.MaxProcs,
			})
		}
		fmt.Fprintln(o.Out)
	}
	fmt.Fprintln(o.Out)
	th := o.Threads[len(o.Threads)-1]
	fmt.Fprintf(o.Out, "# Server latency — per-op ns by request kind, %d threads\n", th)
	for _, sh := range shards {
		c := cfg
		c.Threads = th
		c.SampleLatency = true
		res := workload.RunServer(c, storeFactory(sh, initial))
		fmt.Fprintf(o.Out, "%-16s %-8s %s\n", implName(sh), "all", res.Latency)
		fmt.Fprintf(o.Out, "%-16s %-8s %s\n", implName(sh), "get", res.GetLatency)
		fmt.Fprintf(o.Out, "%-16s %-8s %s\n", implName(sh), "set", res.SetLatency)
		fmt.Fprintf(o.Out, "%-16s %-8s %s\n", implName(sh), "del", res.DelLatency)
		fmt.Fprintf(o.Out, "%-16s %-8s %s\n", implName(sh), "batch", res.BatchLatency)
		fmt.Fprintf(o.Out, "%-16s hit rate %.1f%%, %d buckets across %d shards, %d resizes, %d/%d nodes retired/reused\n",
			implName(sh), 100*res.HitRate, res.FinalBuckets, sh, res.Resizes, res.NodesRetired, res.NodesReused)
		o.Record.add(Row{
			Figure: "Server latency", Workload: wlLabel, Impl: implName(sh), Threads: th,
			Mops: res.Mops, P50Ns: res.Latency.P50, P99Ns: res.Latency.P99, MaxNs: res.Latency.Max,
			MaxProcs: res.MaxProcs,
		})
	}
	fmt.Fprintln(o.Out)
}

// implName labels a shard-count series.
func implName(shards int) string { return fmt.Sprintf("store-%dsh", shards) }

// normalizeShards applies store.New's shard rounding (next power of two,
// capped at 256) up front and dedupes, so the printed series names, the
// per-shard floor provisioning and the JSON join keys all describe the
// configuration that actually runs — `-shards 3` measures and labels a
// 4-shard store, not a phantom 3-shard one.
func normalizeShards(in []int) []int {
	if len(in) == 0 {
		return []int{1, 4, 16}
	}
	out := make([]int, 0, len(in))
	seen := map[int]bool{}
	for _, n := range in {
		p := 1
		for p < n && p < 256 {
			p <<= 1
		}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// storeFactory builds the server figure's store: the initial size split
// across the shards as each one's floor, so the per-shard provisioning is
// fair at every shard count.
func storeFactory(shards, initial int) func() *store.Store[uint64] {
	perShard := initial / shards
	if perShard < 64 {
		perShard = 64
	}
	return func() *store.Store[uint64] {
		return store.New(store.WithShards(shards), store.WithShardBuckets(perShard))
	}
}

// FigOrdered runs the ordered-index scenario (beyond the paper: its
// skip list is the building block, the range-partitioned store is the
// system): a zipfian GET/SET/DEL stream with a 10% fraction of range
// scans, swept across thread counts × shard counts. The 1-shard row is the
// single skip list behind the store API; separation between rows is
// what range partitioning buys when scans and point ops contend. The
// reclamation columns are the acceptance signal: towers retire and get
// reused with zero caller-side quiescing — the scheduler's idle sweeps
// alone drain them.
func FigOrdered(o RunOpts) {
	o = o.Normalize()
	shards := normalizeShards(o.Shards)
	const initial = 65536
	cfg := workload.OrderedConfig{
		Duration:    o.Duration,
		InitialSize: initial,
		SetPct:      8,
		DelPct:      2,
		ScanPct:     10,
		ScanWidth:   64,
	}
	wlLabel := fmt.Sprintf("zipf get80/set8/del2/scan10x64 init %d", initial)
	fmt.Fprintf(o.Out, "# Ordered — store.Ordered, %s (Mops/s)\n", wlLabel)
	fmt.Fprintf(o.Out, "%-8s", "threads")
	for _, sh := range shards {
		fmt.Fprintf(o.Out, "%16s", orderedImplName(sh))
	}
	fmt.Fprintln(o.Out)
	for _, th := range o.Threads {
		fmt.Fprintf(o.Out, "%-8d", th)
		for _, sh := range shards {
			c := cfg
			c.Threads = th
			res := workload.RunOrdered(c, orderedFactory(sh, initial))
			fmt.Fprintf(o.Out, "%16.3f", res.Mops)
			o.Record.add(Row{
				Figure: "Ordered", Workload: wlLabel, Impl: orderedImplName(sh), Threads: th,
				Mops: res.Mops, NodesRetired: res.TowersRetired, NodesReused: res.TowersReused,
				MaxProcs: res.MaxProcs,
			})
		}
		fmt.Fprintln(o.Out)
	}
	fmt.Fprintln(o.Out)
	th := o.Threads[len(o.Threads)-1]
	fmt.Fprintf(o.Out, "# Ordered latency — per-op ns by request kind, %d threads\n", th)
	for _, sh := range shards {
		c := cfg
		c.Threads = th
		c.SampleLatency = true
		res := workload.RunOrdered(c, orderedFactory(sh, initial))
		fmt.Fprintf(o.Out, "%-16s %-8s %s\n", orderedImplName(sh), "all", res.Latency)
		fmt.Fprintf(o.Out, "%-16s %-8s %s\n", orderedImplName(sh), "get", res.GetLatency)
		fmt.Fprintf(o.Out, "%-16s %-8s %s\n", orderedImplName(sh), "set", res.SetLatency)
		fmt.Fprintf(o.Out, "%-16s %-8s %s\n", orderedImplName(sh), "scan", res.ScanLatency)
		fmt.Fprintf(o.Out, "%-16s hit rate %.1f%%, %.1f entries/scan, towers retired %d reclaimed %d reused %d (no caller quiesce)\n",
			orderedImplName(sh), 100*res.HitRate, scanDensity(res), res.TowersRetired, res.TowersReclaimed, res.TowersReused)
		o.Record.add(Row{
			Figure: "Ordered latency", Workload: wlLabel, Impl: orderedImplName(sh), Threads: th,
			Mops: res.Mops, P50Ns: res.Latency.P50, P99Ns: res.Latency.P99, MaxNs: res.Latency.Max,
			MaxProcs: res.MaxProcs,
		})
	}
	fmt.Fprintln(o.Out)
}

// orderedImplName labels a shard-count series of the ordered figure.
func orderedImplName(shards int) string { return fmt.Sprintf("ordered-%dsh", shards) }

// scanDensity is the average page fill of a run's scans.
func scanDensity(res workload.OrderedResult) float64 {
	if res.Scans == 0 {
		return 0
	}
	return float64(res.Scanned) / float64(res.Scans)
}

// orderedFactory builds the ordered figure's in-process store: the key
// ceiling matches the workload's 2×initial key range, so the range
// partition splits the populated space, not a mostly-empty one.
func orderedFactory(shards, initial int) func() *store.Ordered[uint64] {
	return func() *store.Ordered[uint64] {
		return store.NewOrdered(store.WithShards(shards), store.WithKeyMax(uint64(2*initial)))
	}
}

// FigConns runs the connection-scaling scenario (beyond the paper: OPTIK's
// pay-only-on-contention principle applied to connections): a population of
// N connections with an active fraction issuing pipelined bursts, swept
// across N × active% × conn mode. The all-active column is the throughput
// parity check (the poller must not tax busy connections); the mostly-idle
// column is the C10K story — buffers_resident is the memory the idle
// population pins, and the poller's idle-grace release should hold it near
// the active fraction's working set while goroutine mode pays for every
// conn that ever spoke. Populations above ~1k need a raised ulimit -n.
func FigConns(o RunOpts) {
	o = o.Normalize()
	conns := o.Conns
	if len(conns) == 0 {
		conns = []int{64, 1024, 4096}
	}
	pcts := o.ActivePcts
	if len(pcts) == 0 {
		pcts = []int{100, 5}
	}
	modes := []server.ConnMode{server.ConnModeGoroutine}
	if server.PollerSupported() {
		modes = append(modes, server.ConnModePoller)
	}
	// The idle grace must fit inside the measured window for the idle
	// release to be observable at the sample point.
	grace := o.Duration / 4
	if grace < 10*time.Millisecond {
		grace = 10 * time.Millisecond
	}
	if grace > 250*time.Millisecond {
		grace = 250 * time.Millisecond
	}
	fmt.Fprintf(o.Out, "# Conns — connection scaling, pipelined MGET/MSET bursts, idle grace %s (Mops/s; resident KiB)\n", grace)
	fmt.Fprintf(o.Out, "%-10s %-8s", "conns", "active")
	for _, m := range modes {
		fmt.Fprintf(o.Out, "%16s %14s", connsImplName(m), "resident KiB")
	}
	fmt.Fprintln(o.Out)
	for _, n := range conns {
		for _, pct := range pcts {
			fmt.Fprintf(o.Out, "%-10d %-8s", n, fmt.Sprintf("%d%%", pct))
			for _, m := range modes {
				res := runConnsCell(o, m, grace, n, pct)
				fmt.Fprintf(o.Out, "%16.3f %14d", res.Mops, res.BuffersResident/1024)
				o.Record.add(Row{
					Figure:   "Conns",
					Workload: fmt.Sprintf("conns %d active %d%%", n, pct),
					Impl:     connsImplName(m),
					Threads:  res.Active,
					Mops:     res.Mops,
					P50Ns:    res.Latency.P50, P99Ns: res.Latency.P99, MaxNs: res.Latency.Max,
					MaxProcs: res.MaxProcs,
					ConnMode: m.String(), BuffersResident: res.BuffersResident, ConnsShed: res.Shed,
				})
			}
			fmt.Fprintln(o.Out)
		}
	}
	fmt.Fprintln(o.Out)
}

// connsImplName labels a conn-mode series; the mode is part of the JSON
// join key so bench-diff never compares the poller against goroutine rows.
func connsImplName(m server.ConnMode) string { return "conns-" + m.String() }

// runConnsCell runs one conns figure cell against a private loopback
// server configured for the mode under test.
func runConnsCell(o RunOpts, mode server.ConnMode, grace time.Duration, conns, activePct int) workload.ConnsResult {
	st := store.NewStrings(store.WithShardBuckets(1024))
	srv := server.New(st, server.WithConnMode(mode), server.WithIdleGrace(grace))
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		panic("figures: conns loopback server: " + err.Error())
	}
	defer func() {
		srv.Close()
		st.Close()
	}()
	return workload.RunConns(workload.ConnsConfig{
		Addr:          bound.String(),
		Conns:         conns,
		ActivePct:     activePct,
		Duration:      o.Duration,
		SampleLatency: true,
	})
}

// Stacks regenerates the §5.5 stack comparison (not a numbered figure in
// the paper; reported as "behave similarly").
func Stacks(o RunOpts) {
	o = o.Normalize()
	fmt.Fprintln(o.Out, "# §5.5 — stacks, 50/50 push/pop")
	fmt.Fprintf(o.Out, "%-8s", "threads")
	for _, a := range StackAlgos() {
		fmt.Fprintf(o.Out, "%12s", a.Name)
	}
	fmt.Fprintln(o.Out)
	for _, th := range o.Threads {
		fmt.Fprintf(o.Out, "%-8d", th)
		for _, a := range StackAlgos() {
			res := workload.RunStack(th, o.Duration, a.New)
			fmt.Fprintf(o.Out, "%12.3f", res)
			o.Record.add(Row{Figure: "Stacks", Workload: "50/50", Impl: a.Name, Threads: th, Mops: res})
		}
		fmt.Fprintln(o.Out)
	}
	fmt.Fprintln(o.Out)
}

// All regenerates every figure but conns: the paper's (5, 7, 9–12 and
// the stacks), the resize and churn scenarios, and the server and
// ordered shard sweeps. FigConns is left out on purpose — its
// populations need a raised fd limit (ulimit -n), so it runs only when
// named.
func All(o RunOpts) {
	Fig5(o)
	Fig7(o)
	Fig9(o)
	Fig10(o)
	Fig11(o)
	Fig12(o)
	Stacks(o)
	FigResize(o)
	FigChurn(o)
	FigServer(o)
	FigOrdered(o)
}
