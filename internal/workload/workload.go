// Package workload is the microbenchmark driver that regenerates the
// paper's evaluation (§5, Experimental Methodology):
//
//   - On every run the structure is initialized to a target size over a key
//     range twice that size, so roughly half of the attempted updates fail;
//     the reported update rate is the *effective* one (operations that
//     altered the structure), exactly as in the paper's graphs.
//   - Keys are drawn per-thread, uniformly or zipfian with a = 0.9 (largest
//     keys most popular).
//   - All structures share the same backoff policy (internal/backoff).
//   - Every Run* function measures through one window (run.go): the
//     workers build their per-thread state, meet at a ready barrier, and
//     only then does the fixed-duration window open. The resize ramp and
//     the churn cycles are work-bound instead: their window closes when
//     the work is done. A Run* function contributes only its op mix.
//   - Latency is sampled into a fixed 16K-entry ring per thread and
//     reported as the paper's five-percentile boxplots, per operation kind
//     and success/failure (srch/insr/delt × suc/fal).
//   - Results across repetitions are aggregated by median (MedianOf).
package workload

import (
	"time"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/internal/rng"
	"github.com/optik-go/optik/internal/stats"
)

// OpKind indexes the six operation-outcome classes of the paper's latency
// boxplots (Figure 7 and 12).
type OpKind int

// Operation-outcome classes.
const (
	SearchSuc OpKind = iota
	InsertSuc
	DeleteSuc
	SearchFal
	InsertFal
	DeleteFal
	numOpKinds
)

// String returns the paper's graph label for the kind.
func (k OpKind) String() string {
	return [...]string{"srch-suc", "insr-suc", "delt-suc", "srch-fal", "insr-fal", "delt-fal"}[k]
}

// SampleRingSize matches the paper's per-thread latency arrays ("every
// thread holds an array of 16K latency measurements").
const SampleRingSize = 16 * 1024

// Config describes one search-structure workload.
type Config struct {
	Threads int
	// Duration of the measured run.
	Duration time.Duration
	// InitialSize is the structure's initial (and approximately sustained)
	// element count; keys are drawn from twice this range.
	InitialSize int
	// UpdatePct is the *effective* update percentage as reported by the
	// paper's graphs. The driver issues 2×UpdatePct attempted updates
	// (half insertions, half deletions); with the doubled key range about
	// half of them fail, sustaining the target.
	UpdatePct int
	// Zipf selects the skewed key distribution (a = 0.9, largest keys most
	// popular).
	Zipf bool
	// SampleLatency enables the per-thread latency rings.
	SampleLatency bool
}

// Result aggregates one run.
type Result struct {
	// Ops is the total number of completed operations.
	Ops uint64
	// Mops is throughput in million operations per second.
	Mops float64
	// Counts per operation-outcome class.
	Counts [numOpKinds]uint64
	// Latency boxplots per class (nanoseconds); empty without sampling.
	Latency [numOpKinds]stats.Summary
	// EffectiveUpdates is the fraction of all operations that modified the
	// structure.
	EffectiveUpdates float64
	// Elapsed is the measured wall-clock duration.
	Elapsed time.Duration
}

// setSeed seeds RunSet's prefill and per-thread generators.
const setSeed = 0xD1CEB00C

// RunSet drives a search-structure workload and returns its result.
// factory is invoked once per run to build a fresh structure.
func RunSet(cfg Config, factory func() ds.Set) Result {
	if cfg.Threads <= 0 || cfg.InitialSize <= 0 || cfg.Duration <= 0 {
		panic("workload: Threads, InitialSize and Duration must be positive")
	}
	keyRange := uint64(2 * cfg.InitialSize)
	s := factory()
	prefill(s, cfg.InitialSize, keyRange, setSeed)

	updateCut := uint64(2 * cfg.UpdatePct) // attempted updates out of 100
	if updateCut > 100 {
		updateCut = 100
	}
	counts := make([][numOpKinds]uint64, cfg.Threads)
	m := window{threads: cfg.Threads, duration: cfg.Duration}.run(func(id uint64, w *worker) uint64 {
		view := ds.HandleFor(s)
		dist := newDist(keyRange, cfg.Zipf, setSeed+id*0x9E3779B9)
		opr := rng.NewXorshift(setSeed ^ (id+1)*0xBF58476D1CE4E5B9)
		var c [numOpKinds]uint64
		for w.next() {
			key := dist.NextKey()
			roll := opr.Next() % 100
			var kind OpKind
			var begin time.Time
			if cfg.SampleLatency {
				begin = time.Now()
			}
			switch {
			case roll < updateCut/2: // insertion attempt
				if view.Insert(key, key) {
					kind = InsertSuc
				} else {
					kind = InsertFal
				}
			case roll < updateCut: // deletion attempt
				if _, ok := view.Delete(key); ok {
					kind = DeleteSuc
				} else {
					kind = DeleteFal
				}
			default:
				if _, ok := view.Search(key); ok {
					kind = SearchSuc
				} else {
					kind = SearchFal
				}
			}
			if cfg.SampleLatency {
				w.lat[kind].add(float64(time.Since(begin).Nanoseconds()))
			}
			c[kind]++
			pause(opr)
		}
		counts[id] = c
		var ops uint64
		for _, n := range c {
			ops += n
		}
		return ops
	})

	res := Result{Ops: m.ops, Mops: m.mops, Elapsed: m.elapsed}
	for _, c := range counts {
		for k, n := range c {
			res.Counts[k] += n
		}
	}
	if res.Ops > 0 {
		res.EffectiveUpdates = float64(res.Counts[InsertSuc]+res.Counts[DeleteSuc]) / float64(res.Ops)
	}
	if cfg.SampleLatency {
		for k := range res.Latency {
			res.Latency[k] = stats.Summarize(m.lat[k])
		}
	}
	return res
}

// prefill inserts random distinct keys until the structure holds size
// elements.
func prefill(s ds.Set, size int, keyRange uint64, seed uint64) {
	r := rng.NewXorshift(seed)
	inserted := 0
	for inserted < size {
		key := r.Intn(keyRange) + 1
		if s.Insert(key, key) {
			inserted++
		}
	}
}

// newDist builds a per-thread key distribution over [1, keyRange]:
// zipfian (a = 0.9, largest keys most popular) or uniform.
func newDist(keyRange uint64, zipf bool, seed uint64) rng.Distribution {
	if zipf {
		return rng.NewZipf(keyRange, rng.DefaultZipfTheta, true, seed)
	}
	return rng.NewUniform(keyRange, seed)
}

// pause waits briefly between iterations ("after every iteration, threads
// wait for a short duration, in order to avoid long runs").
func pause(r *rng.Xorshift) {
	n := int(r.Next() % 64)
	for i := 0; i < n; i++ {
		_ = i
	}
}

// MedianOf runs fn reps times and returns the run with median throughput
// (the paper reports "the median value of 11 repetitions"); mops reads a
// run's throughput.
func MedianOf[R any](reps int, fn func() R, mops func(R) float64) R {
	if reps <= 0 {
		panic("workload: reps must be positive")
	}
	results := make([]R, reps)
	tput := make([]float64, reps)
	for i := range results {
		results[i] = fn()
		tput[i] = mops(results[i])
	}
	med := stats.Median(tput)
	best := 0
	for i := range results {
		if diffAbs(tput[i], med) < diffAbs(tput[best], med) {
			best = i
		}
	}
	return results[best]
}

func diffAbs(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}
