// The repository's benchmark: one workload per invocation, the server
// hosted in-process and driven over loopback TCP by the generator in
// bench/gen, every reply verified. README.md explains the workloads, the
// metrics and the calibration; BENCHMARK.json at the repository root fixes
// the metric names and regression bounds.
//
// Usage (from the repository root):
//
//	bash bench/run.sh -workload kv_pipe64 -seed 1            # end-to-end metrics
//	bash bench/run.sh -workload kv_pipe64 -seed 1 -trace 1   # per-layer metrics
//	bash bench/run.sh -aa                                    # A/A repeatability check
//
// or, with the default Go build cache, go run -C bench . <flags>.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "seed of the request streams")
	seconds := flag.Float64("seconds", 30, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced window and the per-layer replay and prints the per-layer metrics")
	aa := flag.Bool("aa", false, "run every workload twice in ABAB order and compare the end-to-end metrics against BENCHMARK.json's bounds")
	flag.Parse()
	if flag.NArg() != 0 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *aa {
		os.Exit(runAA(*seed, *seconds))
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	pinRuntime()
	cfg := runConfig{w: w, seed: *seed, window: time.Duration(*seconds * float64(time.Second))}
	fmt.Printf("machine %s\n", machineJSON())
	fmt.Printf("run workload=%s seed=%d seconds=%g trace=%d conns=%d depth=%d\n",
		w.Name, *seed, *seconds, *trace, w.conns, w.Depth)
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = runTraced(cfg)
	} else {
		rep, err = runPlain(cfg)
	}
	if rep == nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	if err != nil || rep.failed > 0 {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

// pinRuntime fixes the runtime settings the bounds were calibrated with,
// whatever the host's core count and environment say.
func pinRuntime() {
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(math.MaxInt64)
}

// setupRounds is how many times a plain run sets the system up; setup_s is
// the median, and the run measures the last one.
const setupRounds = 3

// numSlices is how many equal slices a measured window is cut into: 3.75 s
// each at the default length, long enough that every slice pays for at
// least one whole collection cycle of the workload with the largest heap
// (ordered_scan, one every 2.1 s) and the quiet quarter is not simply the
// slices the collector happened to skip.
const numSlices = 8

// warmup is the discarded start of a run: the first seconds after start
// are always the slowest (cold caches, heap still growing to its goal).
func warmup(window time.Duration) time.Duration {
	return min(5*time.Second, window/4)
}

type runConfig struct {
	w      *workload
	seed   uint64
	window time.Duration
}

// metric is one named number of a report.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is the outcome of one run: the gated metrics that go into the
// result line, plus diagnostics that are only printed.
type report struct {
	attempted, failed uint64
	metrics           []metric
	notes             []metric
}

// print writes every metric by name with its unit and, as the last line,
// the result object the benchmark contract asks for.
func (r *report) print(w io.Writer) {
	for _, m := range slices.Concat(r.metrics, r.notes) {
		fmt.Fprintf(w, "metric %s %v %s\n", m.name, m.value, m.unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, make(map[string]value)}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // only NaN or Inf can do this, and no metric divides by zero
	}
	fmt.Fprintf(w, "%s\n", line)
}

// runPlain is the end-to-end run: set up (several times, for a steady
// setup_s), warm up, collect garbage, measure one untraced window.
func runPlain(cfg runConfig) (*report, error) {
	var e *env
	var setupSecs []float64
	for range setupRounds {
		if e != nil {
			e.close()
			// Give the previous round's memory back, so that every round
			// and the measured window start from the same resident set.
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if e, err = setup(cfg.w, cfg.seed); err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
	}
	defer e.close()
	debug.FreeOSMemory()

	warm := warmup(cfg.window)
	d := startDriver(e, numSlices, math.MaxInt32, warm+cfg.window+time.Minute)
	werr := d.sleep(warm)
	var win window
	if werr == nil {
		runtime.GC()
		win, werr = d.window(1, numSlices, cfg.window, false)
	}
	cerr := d.stop()
	m, all := d.measured(&win), d.all()
	rep := &report{attempted: all.Ops, failed: all.Failed}
	if werr != nil {
		return rep, errors.Join(werr, cerr)
	}
	quiet, quietDur := m.quietQuarter()
	slices.Sort(setupSecs)
	rep.metrics = []metric{
		{"throughput_kops", throughputKops(quiet, quietDur), "kops/s"},
		{"latency_p50_us", quiet.Lat.Quantile(0.5) / 1e3, "us"},
		{"rss_peak_mb", float64(win.rssPeak) / 1e6, "MB"},
		{"hit_rate", float64(m.total.Hits) / float64(m.total.Gets), "ratio"},
		{"setup_s", setupSecs[len(setupSecs)/2], "s"},
	}
	rep.notes = []metric{
		{"error_rate", float64(all.Failed) / float64(all.Ops), "ratio"},
		{"latency_samples", float64(quiet.Lat.Count()), "count"},
		{"window.throughput_kops", throughputKops(&m.total, m.dur), "kops/s"},
		{"window.latency_p50_us", m.total.Lat.Quantile(0.5) / 1e3, "us"},
		{"noise.window_spread_pct", spreadPct(m.rates()), "%"},
		{"preloaded_keys", float64(e.preloaded), "count"},
	}
	return rep, cerr
}

// machineJSON describes the host and the build, so a number can be traced
// to what produced it.
func machineJSON() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+dirty"
				}
			}
		}
	}
	b, _ := json.Marshal(map[string]any{
		"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit,
	})
	return string(b)
}
