package main

import (
	"errors"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/optik-go/optik/bench/gen"
)

// counters is a snapshot of everything cumulative the traced window is
// bracketed with: the server's STATS, the process's syscall and CPU
// accounting, and the Go runtime's allocation and GC totals.
type counters struct {
	stats    map[string]int64
	syscalls uint64
	cpu      time.Duration
	mem      runtime.MemStats
}

func snapshot(ctl *control) (c counters, err error) {
	if c.stats, err = ctl.stats(); err != nil {
		return c, err
	}
	c.syscalls = ioSyscalls()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, err
	}
	c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	runtime.ReadMemStats(&c.mem)
	return c, nil
}

// ioSyscalls is the process's read plus write syscall count from
// /proc/self/io; 0 where the kernel does not account it.
func ioSyscalls() uint64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	var n uint64
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ": "); ok && (k == "syscr" || k == "syscw") {
			c, _ := strconv.ParseUint(v, 10, 64)
			n += c
		}
	}
	return n
}

// ratio is a/b, and 0 when there was nothing to divide by: a layer that
// did no work in the window reports 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// served is what the served part of a traced run observed.
type served struct {
	refWin, win   window
	before, after counters
	ref, traced   *gen.Stats
	// rates is the traced window's throughput slice by slice.
	rates             []float64
	attempted, failed uint64
}

// serveTraced sets up once, warms up, measures a short untraced reference
// window and then the traced window, bracketed by counter snapshots, with
// the clients recording their spans.
func serveTraced(cfg runConfig) (*served, error) {
	e, err := setup(cfg.w, cfg.seed)
	if err != nil {
		return nil, err
	}
	defer e.close()
	debug.FreeOSMemory()

	warm, ref, traced := warmup(cfg.window), cfg.window/4, cfg.window/2
	const refSlices, tracedSlices = numSlices / 4, numSlices / 2
	d := startDriver(e, refSlices+tracedSlices, 1+refSlices, warm+ref+traced+time.Minute)
	var s served
	werr := d.sleep(warm)
	if werr == nil {
		runtime.GC()
		s.refWin, werr = d.window(1, refSlices, ref, false)
	}
	if werr == nil {
		s.before, werr = snapshot(e.ctl)
	}
	if werr == nil {
		s.win, werr = d.window(1+refSlices, tracedSlices, traced, true)
	}
	if werr == nil {
		s.after, werr = snapshot(e.ctl)
	}
	cerr := d.stop()
	refM, tracedM := d.measured(&s.refWin), d.measured(&s.win)
	s.ref, s.traced, s.rates = &refM.total, &tracedM.total, tracedM.rates()
	all := d.all()
	s.attempted, s.failed = all.Ops, all.Failed
	return &s, errors.Join(werr, cerr)
}

// runTraced is the per-layer run: the served windows above, then, with the
// server torn down, the replay of the same op stream straight into each
// layer's public API. Nothing inside the program is instrumented.
func runTraced(cfg runConfig) (*report, error) {
	s, err := serveTraced(cfg)
	if s == nil {
		return nil, err
	}
	rep := &report{attempted: s.attempted, failed: s.failed}
	if err != nil {
		return rep, err
	}
	debug.FreeOSMemory()
	lay := replay(cfg.w, cfg.seed, cfg.w.replayOps)
	st, win, before, after := s.traced, s.win, s.before, s.after

	ops := float64(st.Ops)
	kops, refKops := throughputKops(st, win.elapsed()), throughputKops(s.ref, s.refWin.elapsed())
	delta := func(name string) float64 { return float64(after.stats[name] - before.stats[name]) }
	end := func(name string) float64 { return float64(after.stats[name]) }
	perOp := func(ns int64) float64 { return float64(ns) / ops }

	rep.metrics = []metric{
		// The wire rung is what is left of a command's core-time once the
		// store's share is taken out: procs cores for 1/throughput each.
		{"server.wire_ns_per_op", procs*1e6/kops - lay.strings.nsPerOp, "ns"},
		{"server.io_syscalls_per_op", float64(after.syscalls-before.syscalls) / ops, "count"},
		{"server.coalesce_run_len", ratio(delta("coalesced_keys"), delta("coalesced_batches")), "count"},
		{"server.coalesced_share", delta("coalesced_keys") / delta("commands"), "ratio"},
		{"server.buffers_resident", end("buffers_resident"), "bytes"},

		{"client.encode_ns_per_op", perOp(st.EncodeNs), "ns"},
		{"client.flush_ns_per_op", perOp(st.FlushNs), "ns"},
		{"client.wait_ns_per_op", perOp(st.WaitNs), "ns"},
		{"client.parse_ns_per_op", perOp(st.ParseNs), "ns"},
		{"client.latency_p99_us", st.Lat.Quantile(0.99) / 1e3, "us"},
		{"client.latency_max_us", float64(st.Lat.Max()) / 1e3, "us"},

		{"store.strings_ns_per_op", lay.strings.nsPerOp, "ns"},
		{"store.strings_allocs_per_op", lay.strings.allocsPerOp, "count"},
		{"store.index_ns_per_op", lay.index.nsPerOp, "ns"},
		{"store.arena_ns_per_op", lay.strings.nsPerOp - lay.index.nsPerOp, "ns"},
		{"store.router_ns_per_op", lay.index.nsPerOp - lay.base.nsPerOp, "ns"},
		{"store.batch_ns_per_key", lay.batchNsPerKey, "ns"},
		{"store.scan_ns_per_key", lay.strings.scanNsPerKey, "ns"},
		{"store.bytes_used_mb", end("bytes_used") / 1e6, "MB"},
		{"store.bytes_per_user_byte", lay.bytesPerUserByte, "ratio"},
		{"store.values_free_share", ratio(end("values_free"), end("values_allocated")), "ratio"},
		{"store.evicted_per_insert", ratio(delta("evicted"), float64(st.Inserts)), "ratio"},
		{"store.budget_overshoot", ratio(float64(win.bytesUsedPeak), float64(cfg.w.byteBudget())), "ratio"},
		{"store.expired_lazy", delta("expired_lazy"), "count"},
		{"store.expired_swept", delta("expired_swept"), "count"},

		{"hashmap.ns_per_op", lay.hashmap().nsPerOp, "ns"},
		{"hashmap.allocs_per_op", lay.hashmap().allocsPerOp, "count"},
		{"hashmap.resizes", float64(lay.resizes), "count"},
		{"hashmap.buckets", float64(lay.buckets), "count"},

		{"skiplist.ns_per_op", lay.skiplist().nsPerOp, "ns"},
		{"skiplist.scan_ns_per_key", lay.skiplist().scanNsPerKey, "ns"},

		{"qsbr.nodes_retired", delta("nodes_retired"), "count"},
		{"qsbr.reuse_share", ratio(delta("nodes_reused"), delta("nodes_retired")), "ratio"},
		{"qsbr.reclaim_lag", end("nodes_retired") - end("nodes_reclaimed"), "count"},

		{"go.allocs_per_op", float64(after.mem.Mallocs-before.mem.Mallocs) / ops, "count"},
		{"go.gc_cycles", float64(after.mem.NumGC - before.mem.NumGC), "count"},
		{"go.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6, "ms"},
		{"go.heap_inuse_mb", float64(after.mem.HeapInuse) / 1e6, "MB"},
		{"go.cpu_us_per_op", float64((after.cpu - before.cpu).Microseconds()) / ops, "us"},

		{"trace.overhead_pct", 100 * (refKops - kops) / refKops, "%"},
		{"noise.window_spread_pct", spreadPct(s.rates), "%"},
	}
	rep.notes = []metric{
		{"traced.throughput_kops", kops, "kops/s"},
		{"reference.throughput_kops", refKops, "kops/s"},
		{"traced.latency_p50_us", st.Lat.Quantile(0.5) / 1e3, "us"},
		{"traced.hit_rate", ratio(float64(st.Hits), float64(st.Gets)), "ratio"},
		{"traced.rss_peak_mb", float64(win.rssPeak) / 1e6, "MB"},
		{"replay.ops", float64(cfg.w.replayOps), "count"},
	}
	return rep, nil
}
