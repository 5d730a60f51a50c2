// Benchmarks regenerating the paper's evaluation, one bench tree per table
// or figure. Each sub-benchmark runs the corresponding workload for a fixed
// short duration per iteration and reports throughput as Mops/s (the
// paper's metric), so shapes are comparable directly against the figures.
//
// Paper-scale runs (5 s × 11 repetitions × a full thread sweep) are driven
// by cmd/optik-bench; these testing.B targets are the quick, scriptable
// view of the same experiment definitions in internal/figures.
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

// BenchmarkFig05Lock regenerates Figure 5: validated lock-acquisition
// throughput and CAS-per-validation for ttas/optik-ticket/optik-versioned.
func BenchmarkFig05Lock(b *testing.B) {
	for _, impl := range workload.LockImpls {
		for _, th := range benchThreads {
			b.Run(fmt.Sprintf("%s/threads=%d", impl, th), func(b *testing.B) {
				var res workload.LockResult
				for i := 0; i < b.N; i++ {
					res = workload.RunLock(workload.LockConfig{
						Threads: th, Duration: benchDuration,
					}, impl)
				}
				b.ReportMetric(res.Mops, "Mops/s")
				b.ReportMetric(res.CASPerValidation, "CAS/validation")
				b.ReportMetric(0, "ns/op")
			})
		}
	}
}

// BenchmarkFig07ArrayMap regenerates Figure 7: mcs vs optik array maps on
// the small (4 slots) and large (1024 slots) configurations, 10% updates.
func BenchmarkFig07ArrayMap(b *testing.B) {
	sizes := []struct {
		label string
		size  int
	}{{"small-4", 4}, {"large-1024", 1024}}
	for _, sz := range sizes {
		for _, algo := range figures.MapAlgos(sz.size) {
			for _, th := range benchThreads {
				name := fmt.Sprintf("%s/%s/threads=%d", sz.label, algo.Name, th)
				b.Run(name, func(b *testing.B) {
					reportSet(b, workload.Config{
						Threads: th, Duration: benchDuration,
						InitialSize: sz.size, UpdatePct: 10,
					}, algo.New)
				})
			}
		}
	}
}

// BenchmarkFig09List regenerates Figure 9: seven list algorithms over the
// five workloads (large/medium/small × uniform, large/small × zipfian).
func BenchmarkFig09List(b *testing.B) {
	workloads := []figures.SetWorkload{
		{Label: "large", InitialSize: 8192, UpdatePct: 20},
		{Label: "medium", InitialSize: 1024, UpdatePct: 20},
		{Label: "small", InitialSize: 64, UpdatePct: 20},
		{Label: "large-skewed", InitialSize: 8192, UpdatePct: 20, Zipf: true},
		{Label: "small-skewed", InitialSize: 64, UpdatePct: 20, Zipf: true},
	}
	for _, wl := range workloads {
		for _, algo := range figures.Fig9ListAlgos() {
			for _, th := range benchThreads {
				name := fmt.Sprintf("%s/%s/threads=%d", wl.Label, algo.Name, th)
				b.Run(name, func(b *testing.B) {
					reportSet(b, workload.Config{
						Threads: th, Duration: benchDuration,
						InitialSize: wl.InitialSize, UpdatePct: wl.UpdatePct, Zipf: wl.Zipf,
					}, algo.New)
				})
			}
		}
	}
}

// BenchmarkFig10HashTable regenerates Figure 10: six hash tables on the
// medium and small-skewed workloads (buckets = initial size).
func BenchmarkFig10HashTable(b *testing.B) {
	workloads := []figures.SetWorkload{
		{Label: "medium", InitialSize: 8192, UpdatePct: 20, Buckets: 8192},
		{Label: "small-skewed", InitialSize: 512, UpdatePct: 20, Zipf: true, Buckets: 512},
	}
	for _, wl := range workloads {
		for _, algo := range figures.HashAlgos(wl.Buckets) {
			for _, th := range benchThreads {
				name := fmt.Sprintf("%s/%s/threads=%d", wl.Label, algo.Name, th)
				b.Run(name, func(b *testing.B) {
					reportSet(b, workload.Config{
						Threads: th, Duration: benchDuration,
						InitialSize: wl.InitialSize, UpdatePct: wl.UpdatePct, Zipf: wl.Zipf,
					}, algo.New)
				})
			}
		}
	}
}

// BenchmarkFig11SkipList regenerates Figure 11: five skip lists on the
// large-skewed and small-skewed workloads.
func BenchmarkFig11SkipList(b *testing.B) {
	workloads := []figures.SetWorkload{
		{Label: "large-skewed", InitialSize: 65536, UpdatePct: 20, Zipf: true},
		{Label: "small-skewed", InitialSize: 1024, UpdatePct: 20, Zipf: true},
	}
	for _, wl := range workloads {
		for _, algo := range figures.SkiplistAlgos() {
			for _, th := range benchThreads {
				name := fmt.Sprintf("%s/%s/threads=%d", wl.Label, algo.Name, th)
				b.Run(name, func(b *testing.B) {
					reportSet(b, workload.Config{
						Threads: th, Duration: benchDuration,
						InitialSize: wl.InitialSize, UpdatePct: wl.UpdatePct, Zipf: wl.Zipf,
					}, algo.New)
				})
			}
		}
	}
}

// BenchmarkFig12Queue regenerates Figure 12: six queues over the three
// enqueue/dequeue mixes, initialized with 65536 elements.
func BenchmarkFig12Queue(b *testing.B) {
	mixes := []struct {
		label string
		enq   int
	}{{"decreasing-40enq", 40}, {"stable-50enq", 50}, {"increasing-60enq", 60}}
	for _, mix := range mixes {
		for _, algo := range figures.QueueAlgos() {
			for _, th := range benchThreads {
				name := fmt.Sprintf("%s/%s/threads=%d", mix.label, algo.Name, th)
				b.Run(name, func(b *testing.B) {
					var res workload.QueueResult
					for i := 0; i < b.N; i++ {
						res = workload.RunQueue(workload.QueueConfig{
							Threads: th, Duration: benchDuration,
							InitialSize: 65536, EnqueuePct: mix.enq,
						}, algo.New)
					}
					b.ReportMetric(res.Mops, "Mops/s")
					b.ReportMetric(0, "ns/op")
				})
			}
		}
	}
}

// BenchmarkStacks regenerates the §5.5 stack comparison (treiber vs optik,
// reported in the text as behaving similarly).
func BenchmarkStacks(b *testing.B) {
	for _, algo := range figures.StackAlgos() {
		for _, th := range benchThreads {
			b.Run(fmt.Sprintf("%s/threads=%d", algo.Name, th), func(b *testing.B) {
				var mops float64
				for i := 0; i < b.N; i++ {
					mops = workload.RunStack(th, benchDuration, algo.New)
				}
				b.ReportMetric(mops, "Mops/s")
				b.ReportMetric(0, "ns/op")
			})
		}
	}
}

// BenchmarkBucketLayout isolates the bucket memory layout: OptikGL's
// packed parallel arrays (eight bucket locks per cache line, head pointers
// in a second array) versus the padded one-cache-line slab bucket, under
// the same per-bucket OPTIK locking discipline. Update-heavy so the lock
// lines stay hot: at 1 thread the layouts should be at parity (one miss vs
// two on a cold bucket), at 16 the packed arrays additionally pay
// false-sharing invalidations on every neighbor-bucket CAS. The
// padded-slab-reuse row adds qsbr chain-node recycling to the same layout
// (ReportAllocs makes the allocation win visible; the nodes-reused metric
// proves the free lists are live), isolating the reclamation ablation
// from both the layout and the resize machinery.
func BenchmarkBucketLayout(b *testing.B) {
	impls := []figures.NamedSet{
		{Name: "packed-arrays", New: func() ds.Set { return hashmap.NewOptikGL(4096) }},
		{Name: "padded-slab", New: func() ds.Set { return hashmap.NewSlab(4096) }},
		{Name: "padded-slab-reuse", New: func() ds.Set { return hashmap.NewSlabReuse(4096) }},
	}
	for _, impl := range impls {
		for _, th := range []int{1, 16} {
			b.Run(fmt.Sprintf("%s/threads=%d", impl.Name, th), func(b *testing.B) {
				b.ReportAllocs()
				factory := impl.New
				var last ds.Set
				reportSet(b, workload.Config{
					Threads: th, Duration: benchDuration,
					InitialSize: 4096, UpdatePct: 50,
				}, func() ds.Set { last = factory(); return last })
				reused := float64(0)
				if rs, ok := last.(interface {
					ReclaimStats() (retired, reclaimed, reused uint64)
				}); ok {
					_, _, r := rs.ReclaimStats()
					reused = float64(r)
				}
				b.ReportMetric(reused, "nodes-reused")
			})
		}
	}
	// The reuse ablation needs overflow chains to recycle: at the paper's
	// load factor 1 every element sits inline and no node is ever
	// allocated, so the recycling rows run at load 8 (16384 elements in
	// 2048 buckets, 50% updates) where the chain churn is the workload.
	// slab-fixed drops every unlinked node to the GC; slab-reuse feeds
	// them back through qsbr — the allocs/op and nodes-reused columns are
	// the isolated win, the Mops/s delta its validation price.
	chained := []figures.NamedSet{
		{Name: "slab-fixed", New: func() ds.Set { return hashmap.NewSlab(2048) }},
		{Name: "slab-reuse", New: func() ds.Set { return hashmap.NewSlabReuse(2048) }},
	}
	for _, impl := range chained {
		for _, th := range []int{1, 16} {
			b.Run(fmt.Sprintf("chained/%s/threads=%d", impl.Name, th), func(b *testing.B) {
				b.ReportAllocs()
				factory := impl.New
				var last ds.Set
				reportSet(b, workload.Config{
					Threads: th, Duration: benchDuration,
					InitialSize: 16384, UpdatePct: 50,
				}, func() ds.Set { last = factory(); return last })
				reused := float64(0)
				if rs, ok := last.(interface {
					ReclaimStats() (retired, reclaimed, reused uint64)
				}); ok {
					_, _, r := rs.ReclaimStats()
					reused = float64(r)
				}
				b.ReportMetric(reused, "nodes-reused")
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
// resizable table must shrink back between cycles (final-buckets metric)
// and recycle its chain nodes through the qsbr free lists instead of
// re-allocating (allocs/op via ReportAllocs, plus the nodes-reused
// metric — the fixed slab, which never retires a node, is the foil for
// both). The read-heavy variant (90% searches) checks that readers stay
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
					b.ReportMetric(float64(res.NodesReused), "nodes-reused")
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
			b.ReportMetric(float64(res.NodesReused), "nodes-reused")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// BenchmarkStore drives the sharded store on the mixed zipfian server
// workload (90% GET / 8% SET / 2% DEL over a churning key population)
// across shard counts, in a single-key variant and a batched one (every
// request a 16-key MGet/MSet/MDel). The shards=1 rows are the unsharded
// table behind the same API — the baseline the scaling axis is read
// against; the batch rows measure what hoisting the per-op fixed costs
// (router, reclamation handle, migration help) buys per key. Shard-count
// scaling is a parallelism win, so its full size shows on multi-core
// hardware; batching pays on any machine.
func BenchmarkStore(b *testing.B) {
	const initial = 65536
	threads := 16
	for _, shards := range []int{1, 4, 16} {
		for _, mode := range []struct {
			label    string
			batchPct int
		}{{"single", 0}, {"batch16", 100}} {
			name := fmt.Sprintf("shards=%d/%s/threads=%d", shards, mode.label, threads)
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				perShard := initial / shards
				var res workload.ServerResult
				for i := 0; i < b.N; i++ {
					res = workload.RunServer(workload.ServerConfig{
						Threads: threads, Duration: benchDuration, InitialSize: initial,
						SetPct: 8, DelPct: 2, BatchPct: mode.batchPct, BatchSize: 16,
					}, func() *store.Store {
						return store.New(store.WithShards(shards), store.WithShardBuckets(perShard))
					})
				}
				b.ReportMetric(res.Mops, "Mops/s")
				b.ReportMetric(100*res.HitRate, "hit-%")
				b.ReportMetric(float64(res.NodesReused), "nodes-reused")
				b.ReportMetric(0, "ns/op")
			})
		}
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
