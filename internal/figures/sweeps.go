package figures

import (
	"fmt"
	"time"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/ds/hashmap"
	"github.com/optik-go/optik/internal/workload"
	"github.com/optik-go/optik/server"
	"github.com/optik-go/optik/store"
)

// Sweeps lists the figures beyond the paper in optik-bench's order: the
// ds-level resize and churn scenarios, then the in-process store and
// connection sweeps.
var Sweeps = []Figure{
	{"resize", figResize(1000, 1_000_000)},
	{"churn", figChurn},
	{"server", figServer},
	{"ordered", figOrdered},
	{"conns", figConns},
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

// top is the largest thread count of a sweep: where the latency sections
// sample.
func top(o RunOpts) []int { return o.Threads[len(o.Threads)-1:] }

// figResize is the resize-under-load scenario (beyond the paper, which
// only sizes tables statically) at a given scale: structures start with
// start elements and start buckets, then absorb an insert-heavy ramp to
// target elements with 10% searches mixed in. Fixed-bucket tables
// degrade to long chains; the resizable slab migrates buckets
// concurrently with the traffic. The figure ramps 1k to 1M; tests shrink
// it.
func figResize(start, target int) func(RunOpts) []Panel {
	return func(o RunOpts) []Panel {
		algos := ResizeAlgos(start)
		wl := fmt.Sprintf("ramp %d to %d", start, target)
		ramp := func(s, th int, sample bool) workload.RampResult {
			return workload.RunRamp(workload.RampConfig{
				Threads: th, StartSize: start, TargetSize: target, SearchPct: 10,
				SampleLatency: sample,
			}, algos[s].New)
		}
		return []Panel{{
			Figure: "Resize", Workload: wl,
			Title:  fmt.Sprintf("Resize — insert-heavy %s, 10%% searches (Mops/s over the whole ramp)", wl),
			Series: names(algos),
			Cell:   func(s, th int) Row { return Row{Mops: ramp(s, th, false).Mops} },
		}, {
			// A separate sampled pass at the highest thread count keeps
			// the throughput table comparable across commits while making
			// migration stalls visible: the resizable table's p50 should
			// match the fixed slab's, with the migration cost confined to
			// the tail.
			Figure: "Resize latency", Workload: wl,
			Title:   fmt.Sprintf("Resize latency — per-op ns, %s, %d threads", wl, top(o)[0]),
			Series:  names(algos),
			Threads: top(o),
			Sample: func(s, th int) (Row, []string) {
				res := ramp(s, th, true)
				return latencyRow(res.Mops, res.Latency), []string{res.Latency.String()}
			},
		}}
	}
}

// figChurn runs the delete-heavy churn scenario the resize figure cannot
// see: each cycle grows the table to a peak, holds it through a
// read-only steady phase and drains it to a trough (peak/16), with 30%
// searches mixed into the update phases. Fixed tables merely survive it;
// the resizable table must grow and then hand its buckets back, with the
// migration cost visible in the per-op latency tail (p50/p99/max) rather
// than hidden in the throughput average.
func figChurn(o RunOpts) []Panel {
	peak := o.ChurnPeak
	if peak <= 0 {
		peak = 100_000
	}
	trough := peak / 16
	algos := ResizeAlgos(max(peak/8, 1))
	// The steady-op count is part of the label on purpose: rows measured
	// under the 3-phase cycle must not join against pre-steady-phase
	// baselines in bench-diff — the workload definition changed, not the
	// implementations.
	wl := fmt.Sprintf("churn %d/%d steady %d", peak, trough, peak)
	churn := func(s, th int) workload.ChurnResult {
		return workload.RunChurn(workload.ChurnConfig{
			Threads: th, PeakSize: peak, TroughSize: trough, Cycles: 2,
			SearchPct: 30, SteadyOps: peak, SampleLatency: true,
		}, algos[s].New)
	}
	return []Panel{{
		Figure: "Churn", Workload: wl,
		Title: fmt.Sprintf("Churn — grow to %d, steady read-only ×%d ops, drain to %d, ×2 cycles, 30%% searches (Mops/s; per-op ns tail)",
			peak, peak, trough),
		Series: names(algos),
		Cell: func(s, th int) Row {
			res := churn(s, th)
			row := latencyRow(res.Mops, res.Latency)
			row.FinalBuckets = res.FinalBuckets
			return row
		},
	}, {
		Title:   fmt.Sprintf("Churn latency — per-op ns by phase, %d threads", top(o)[0]),
		Series:  names(algos),
		Threads: top(o),
		Sample: func(s, th int) (Row, []string) {
			res := churn(s, th)
			lines := []string{
				kindLine("all", res.Latency),
				kindLine("grow", res.GrowLatency),
				kindLine("drain", res.DrainLatency),
				kindLine("search", res.SearchLatency),
				kindLine("steady", res.SteadyLatency),
			}
			if res.FinalBuckets > 0 {
				lines = append(lines, fmt.Sprintf("final buckets %d after %d resizes, quiesce %s",
					res.FinalBuckets, res.Resizes, res.Quiesces))
			}
			return Row{}, lines
		},
	}}
}

// storeInitial is the server and ordered figures' prefilled element count.
const storeInitial = 65536

// figServer runs the hash-store scenario (beyond the paper: its tables
// are the building block, the store is the system the ROADMAP builds
// toward): a zipfian GET/SET/DEL request stream with 20% of requests as
// 16-key batches, swept across thread counts over the store's one table,
// provisioned at the prefill size. A second pass at the top thread count
// samples per-op latency split by request kind, where the batch
// amortization shows.
func figServer(o RunOpts) []Panel {
	wl := fmt.Sprintf("zipf get90/set8/del2 batch20%%x16 init %d", storeInitial)
	run := func(th int, sample bool) workload.ServerResult {
		return workload.RunServer(workload.ServerConfig{
			Threads: th, Duration: o.Duration, InitialSize: storeInitial,
			SetPct: 8, DelPct: 2, BatchPct: 20, BatchSize: 16, SampleLatency: sample,
		}, func() *store.Store[uint64] { return store.New(store.WithShardBuckets(storeInitial)) })
	}
	series := []string{"store"}
	return []Panel{{
		Figure: "Server", Workload: wl,
		Title:  fmt.Sprintf("Server — store.Store, %s (Mops/s)", wl),
		Series: series,
		Cell: func(_, th int) Row {
			res := run(th, false)
			return Row{Mops: res.Mops, FinalBuckets: res.FinalBuckets, MaxProcs: res.MaxProcs}
		},
	}, {
		Figure: "Server latency", Workload: wl,
		Title:   fmt.Sprintf("Server latency — per-op ns by request kind, %d threads", top(o)[0]),
		Series:  series,
		Threads: top(o),
		Sample: func(_, th int) (Row, []string) {
			res := run(th, true)
			row := latencyRow(res.Mops, res.Latency)
			row.MaxProcs = res.MaxProcs
			return row, []string{
				kindLine("all", res.Latency),
				kindLine("get", res.GetLatency),
				kindLine("set", res.SetLatency),
				kindLine("del", res.DelLatency),
				kindLine("batch", res.BatchLatency),
				fmt.Sprintf("hit rate %.1f%%, %d buckets, %d resizes",
					100*res.HitRate, res.FinalBuckets, res.Resizes),
			}
		},
	}}
}

// figOrdered runs the ordered-index scenario (beyond the paper: its skip
// list is the building block, the ordered store is the system): a zipfian
// GET/SET/DEL stream with a 10% fraction of range scans, swept across
// thread counts over the store's one skip list.
func figOrdered(o RunOpts) []Panel {
	wl := fmt.Sprintf("zipf get80/set8/del2/scan10x64 init %d", storeInitial)
	run := func(th int, sample bool) workload.OrderedResult {
		return workload.RunOrdered(workload.OrderedConfig{
			Threads: th, Duration: o.Duration, InitialSize: storeInitial,
			SetPct: 8, DelPct: 2, ScanPct: 10, ScanWidth: 64, SampleLatency: sample,
		}, func() *store.Ordered[uint64] { return store.NewOrdered() })
	}
	series := []string{"ordered"}
	return []Panel{{
		Figure: "Ordered", Workload: wl,
		Title:  fmt.Sprintf("Ordered — store.Ordered, %s (Mops/s)", wl),
		Series: series,
		Cell: func(_, th int) Row {
			res := run(th, false)
			return Row{Mops: res.Mops, MaxProcs: res.MaxProcs}
		},
	}, {
		Figure: "Ordered latency", Workload: wl,
		Title:   fmt.Sprintf("Ordered latency — per-op ns by request kind, %d threads", top(o)[0]),
		Series:  series,
		Threads: top(o),
		Sample: func(_, th int) (Row, []string) {
			res := run(th, true)
			row := latencyRow(res.Mops, res.Latency)
			row.MaxProcs = res.MaxProcs
			density := 0.0
			if res.Scans > 0 {
				density = float64(res.Scanned) / float64(res.Scans)
			}
			return row, []string{
				kindLine("all", res.Latency),
				kindLine("get", res.GetLatency),
				kindLine("set", res.SetLatency),
				kindLine("scan", res.ScanLatency),
				fmt.Sprintf("hit rate %.1f%%, %.1f entries/scan", 100*res.HitRate, density),
			}
		},
	}}
}

// figConns runs the connection-scaling scenario (beyond the paper:
// OPTIK's pay-only-on-contention principle applied to connections): a
// population of N connections with an active fraction issuing pipelined
// bursts, one panel per N × active%. The all-active panels are the
// throughput of busy connections; the mostly-idle panels are the C10K
// story — buffers_resident is the memory the idle population pins, and
// the idle-grace release should hold it near the active fraction's
// working set however many idle conns once spoke. A panel's one thread
// count is its active connections, one goroutine each. Populations above
// ~1k need a raised ulimit -n.
func figConns(o RunOpts) []Panel {
	conns := o.Conns
	if len(conns) == 0 {
		conns = []int{64, 1024, 4096}
	}
	pcts := o.ActivePcts
	if len(pcts) == 0 {
		pcts = []int{100, 5}
	}
	// The idle grace must fit inside the measured window for the idle
	// release to be observable at the sample point.
	grace := min(max(o.Duration/4, 10*time.Millisecond), 250*time.Millisecond)
	var panels []Panel
	for _, n := range conns {
		for _, pct := range pcts {
			cfg := workload.ConnsConfig{Conns: n, ActivePct: pct, Duration: o.Duration, SampleLatency: true}
			panels = append(panels, Panel{
				Figure: "Conns", Workload: fmt.Sprintf("conns %d active %d%%", n, pct),
				Title: fmt.Sprintf("Conns — %d connections, %d%% active, pipelined MGET/MSET bursts, idle grace %s (Mops/s / resident KiB)",
					n, pct, grace),
				Series:  []string{"conns"},
				Threads: []int{cfg.Active()},
				Cell: func(_, _ int) Row {
					res := runConnsCell(grace, cfg)
					row := latencyRow(res.Mops, res.Latency)
					row.MaxProcs = res.MaxProcs
					row.BuffersResident = res.BuffersResident
					return row
				},
			})
		}
	}
	return panels
}

// runConnsCell runs one conns cell against a private loopback server with
// the given idle grace.
func runConnsCell(grace time.Duration, cfg workload.ConnsConfig) workload.ConnsResult {
	st := store.NewStrings(store.WithShardBuckets(1024))
	srv := server.New(st, server.WithIdleGrace(grace))
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		panic("figures: conns loopback server: " + err.Error())
	}
	defer func() {
		srv.Close()
		st.Close()
	}()
	cfg.Addr = bound.String()
	return workload.RunConns(cfg)
}
