// Benchmarks regenerating the paper's evaluation and the ablations around
// it. Each sub-benchmark runs its workload for a fixed short duration per
// iteration and reports throughput as Mops/s (the paper's metric), so
// shapes are comparable directly against the figures.
//
// Paper-scale runs (5 s × 11 repetitions × a full thread sweep) are driven
// by cmd/optik-bench; BenchmarkFigures is the quick, scriptable view of
// the same cells in internal/figures.
package optik_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/ds/arraymap"
	"github.com/optik-go/optik/ds/hashmap"
	"github.com/optik-go/optik/ds/list"
	"github.com/optik-go/optik/ds/queue"
	"github.com/optik-go/optik/internal/figures"
	"github.com/optik-go/optik/internal/workload"
	"github.com/optik-go/optik/store"
)

// benchDuration is the measured duration of one benchmark iteration.
const benchDuration = 100 * time.Millisecond

// benchThreads are the sweep points exercised by the bench targets.
var benchThreads = []int{1, 4, 16}

// reportSet runs one set workload and reports Mops/s.
func reportSet(b *testing.B, cfg workload.Config, factory func() ds.Set) {
	b.Helper()
	var mops float64
	for i := 0; i < b.N; i++ {
		res := workload.RunSet(cfg, factory)
		mops = res.Mops
	}
	b.ReportMetric(mops, "Mops/s")
	b.ReportMetric(0, "ns/op") // wall-clock per op is not the figure's metric
}

// BenchmarkFigures regenerates the paper's evaluation — Figures 5, 7,
// 9–12 and the §5.5 stacks — from the cells optik-bench prints: one
// sub-benchmark per figure, panel, series and thread count, each
// iteration one run of the cell, reported as Mops/s (the paper's metric;
// Figure 5 adds CAS per validation). The latency sections are
// optik-bench's alone.
func BenchmarkFigures(b *testing.B) {
	o := figures.RunOpts{Threads: benchThreads, Duration: benchDuration}
	for _, f := range figures.Paper {
		for _, p := range f.Panels(o) {
			if p.Cell == nil {
				continue
			}
			for s, series := range p.Series {
				for _, th := range benchThreads {
					b.Run(fmt.Sprintf("%s/%s/%s/threads=%d", f.Name, p.Workload, series, th), func(b *testing.B) {
						var row figures.Row
						for i := 0; i < b.N; i++ {
							row = p.Cell(s, th)
						}
						b.ReportMetric(row.Mops, "Mops/s")
						if row.CASPerValidation > 0 {
							b.ReportMetric(row.CASPerValidation, "CAS/validation")
						}
						b.ReportMetric(0, "ns/op") // wall-clock per op is not the figure's metric
					})
				}
			}
		}
	}
}

// BenchmarkBucketLayout isolates the bucket memory layout: OptikGL's
// packed parallel arrays (eight bucket locks per cache line, head pointers
// in a second array) versus the padded one-cache-line slab bucket, under
// the same per-bucket OPTIK locking discipline. Update-heavy so the lock
// lines stay hot: at 1 thread the layouts should be at parity (one miss vs
// two on a cold bucket), at 16 the packed arrays additionally pay
// false-sharing invalidations on every neighbor-bucket CAS. The chained
// rows run the slab at load 8 (16384 elements in 2048 buckets, 50%
// updates): at the paper's load of 1 every element sits inline, so these
// are the rows where overflow-chain churn, node allocation included, is
// the workload.
func BenchmarkBucketLayout(b *testing.B) {
	for _, impl := range []struct {
		name    string
		initial int
		new     func() ds.Set
	}{
		{"packed-arrays", 4096, func() ds.Set { return hashmap.NewOptikGL(4096) }},
		{"padded-slab", 4096, func() ds.Set { return hashmap.NewSlab(4096) }},
		{"chained/slab-fixed", 16384, func() ds.Set { return hashmap.NewSlab(2048) }},
	} {
		for _, th := range []int{1, 16} {
			b.Run(fmt.Sprintf("%s/threads=%d", impl.name, th), func(b *testing.B) {
				b.ReportAllocs()
				reportSet(b, workload.Config{
					Threads: th, Duration: benchDuration,
					InitialSize: impl.initial, UpdatePct: 50,
				}, impl.new)
			})
		}
	}
}

// BenchmarkResizeRamp drives the resize-under-load scenario: insert-heavy
// ramp from 1k to 200k elements through live incremental migrations.
func BenchmarkResizeRamp(b *testing.B) {
	for _, th := range benchThreads {
		b.Run(fmt.Sprintf("resizable/threads=%d", th), func(b *testing.B) {
			var mops float64
			for i := 0; i < b.N; i++ {
				res := workload.RunRamp(workload.RampConfig{
					Threads: th, StartSize: 1000, TargetSize: 200_000, SearchPct: 10,
				}, func() ds.Set { return hashmap.NewResizable(1024) })
				mops = res.Mops
			}
			b.ReportMetric(mops, "Mops/s")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// BenchmarkChurn drives the delete-heavy churn scenario: two grow/drain
// cycles between 100k elements and 100k/16, with searches mixed in. The
// resizable table must shrink back between cycles (final-buckets metric;
// allocs/op via ReportAllocs, with the fixed slab as the foil). The
// read-heavy variant (90% searches) checks that readers stay
// lock-free through the shrink: its search p50/p99 against the fixed slab
// is the regression guard for the migration protocol's read path.
func BenchmarkChurn(b *testing.B) {
	const peak = 100_000
	impls := []figures.NamedSet{
		{Name: "resizable", New: func() ds.Set { return hashmap.NewResizable(peak / 8) }},
		{Name: "slab-fixed", New: func() ds.Set { return hashmap.NewSlab(peak / 8) }},
	}
	for _, mix := range []struct {
		label     string
		searchPct int
	}{{"update-heavy", 30}, {"read-heavy", 90}} {
		for _, impl := range impls {
			for _, th := range benchThreads {
				b.Run(fmt.Sprintf("%s/%s/threads=%d", mix.label, impl.Name, th), func(b *testing.B) {
					b.ReportAllocs()
					var res workload.ChurnResult
					for i := 0; i < b.N; i++ {
						res = workload.RunChurn(workload.ChurnConfig{
							Threads: th, PeakSize: peak, Cycles: 2,
							SearchPct: mix.searchPct, SampleLatency: true,
						}, impl.New)
					}
					b.ReportMetric(res.Mops, "Mops/s")
					b.ReportMetric(res.SearchLatency.P50, "search-p50-ns")
					b.ReportMetric(res.SearchLatency.P99, "search-p99-ns")
					b.ReportMetric(res.Latency.Max, "max-ns")
					b.ReportMetric(float64(res.FinalBuckets), "final-buckets")
					b.ReportMetric(0, "ns/op")
				})
			}
		}
	}
}

// BenchmarkChurnSteady isolates the read-only steady phase the churn
// workload gained: pure searches against a freshly quiesced table still
// sized for its peak, between the grow and the drain. The steady-p99
// metric is what shrinking exists to protect — scan cost against slabs
// the traffic no longer fills.
func BenchmarkChurnSteady(b *testing.B) {
	const peak = 50_000
	for _, th := range benchThreads {
		b.Run(fmt.Sprintf("resizable/threads=%d", th), func(b *testing.B) {
			b.ReportAllocs()
			var res workload.ChurnResult
			for i := 0; i < b.N; i++ {
				res = workload.RunChurn(workload.ChurnConfig{
					Threads: th, PeakSize: peak, Cycles: 2, SearchPct: 30,
					SteadyOps: peak, SampleLatency: true,
				}, func() ds.Set { return hashmap.NewResizable(peak / 8) })
			}
			b.ReportMetric(res.Mops, "Mops/s")
			b.ReportMetric(res.SteadyLatency.P50, "steady-p50-ns")
			b.ReportMetric(res.SteadyLatency.P99, "steady-p99-ns")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// BenchmarkStore drives the hash store on the mixed zipfian server
// workload (90% GET / 8% SET / 2% DEL over a churning key population), in
// a single-key variant and a batched one (every request a 16-key
// MGet/MSet/MDel). A batch is a loop over the point ops, so the batch rows
// save only the workload loop's per-request overhead and should read
// close to the single rows.
func BenchmarkStore(b *testing.B) {
	const initial = 65536
	threads := 16
	for _, mode := range []struct {
		label    string
		batchPct int
	}{{"single", 0}, {"batch16", 100}} {
		b.Run(fmt.Sprintf("%s/threads=%d", mode.label, threads), func(b *testing.B) {
			b.ReportAllocs()
			var res workload.ServerResult
			for i := 0; i < b.N; i++ {
				res = workload.RunServer(workload.ServerConfig{
					Threads: threads, Duration: benchDuration, InitialSize: initial,
					SetPct: 8, DelPct: 2, BatchPct: mode.batchPct, BatchSize: 16,
				}, func() *store.Store[uint64] {
					return store.New(store.WithShardBuckets(initial))
				})
			}
			b.ReportMetric(res.Mops, "Mops/s")
			b.ReportMetric(100*res.HitRate, "hit-%")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// BenchmarkAblationNodeCache isolates the node-caching technique (§5.1):
// the same fine-grained OPTIK list with and without per-goroutine caches,
// on the large list where the paper reports ~50% gains.
func BenchmarkAblationNodeCache(b *testing.B) {
	cfg := workload.Config{
		Threads: 8, Duration: benchDuration, InitialSize: 8192, UpdatePct: 20,
	}
	b.Run("optik-nocache", func(b *testing.B) {
		reportSet(b, cfg, func() ds.Set { return noHandleSet{list.NewOptik()} })
	})
	b.Run("optik-cache", func(b *testing.B) {
		reportSet(b, cfg, func() ds.Set { return list.NewOptik() })
	})
}

// noHandleSet hides the Handled interface so ds.HandleFor cannot enable
// node caches.
type noHandleSet struct{ ds.Set }

// BenchmarkAblationOptikImpl compares the two OPTIK-lock implementations
// (versioned vs ticket) under the Figure-5 workload at 8 threads.
func BenchmarkAblationOptikImpl(b *testing.B) {
	for _, impl := range []workload.LockImpl{workload.LockOptikVersioned, workload.LockOptikTicket} {
		b.Run(string(impl), func(b *testing.B) {
			var res workload.LockResult
			for i := 0; i < b.N; i++ {
				res = workload.RunLock(workload.LockConfig{Threads: 8, Duration: benchDuration}, impl)
			}
			b.ReportMetric(res.Mops, "Mops/s")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// BenchmarkAblationVictimThreshold sweeps the victim-queue diversion
// threshold (§5.4 uses >2) on the enqueue-heavy mix.
func BenchmarkAblationVictimThreshold(b *testing.B) {
	for _, threshold := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threshold=%d", threshold), func(b *testing.B) {
			var res workload.QueueResult
			for i := 0; i < b.N; i++ {
				res = workload.RunQueue(workload.QueueConfig{
					Threads: 16, Duration: benchDuration,
					InitialSize: 65536, EnqueuePct: 60,
				}, func() ds.Queue { return queue.NewOptikVictim(threshold) })
			}
			b.ReportMetric(res.Mops, "Mops/s")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// BenchmarkAblationMapSearchVersion compares the §4.1 design discussion:
// reading the version once per restart (the paper's chosen design,
// arraymap.Optik) versus the pessimistic map that locks for every search.
func BenchmarkAblationMapSearchVersion(b *testing.B) {
	cfg := workload.Config{
		Threads: 8, Duration: benchDuration, InitialSize: 1024, UpdatePct: 10,
	}
	b.Run("optik-version-validated", func(b *testing.B) {
		reportSet(b, cfg, func() ds.Set { return arraymap.NewOptik(1024) })
	})
	b.Run("mcs-locked-search", func(b *testing.B) {
		reportSet(b, cfg, func() ds.Set { return arraymap.NewMCS(1024) })
	})
}
