// The resize-under-load scenario: unlike the steady-state workloads of the
// paper (fixed size, fixed key range), the ramp starts a structure small
// and drives it far past its initial capacity with insert-heavy traffic.
// Fixed-bucket tables degrade to long chains; a resizable table must
// migrate concurrently with the traffic. The run is work-bound, not
// time-bound: it ends when the structure has absorbed the target number of
// elements.

package workload

import (
	"sync/atomic"
	"time"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/internal/rng"
	"github.com/optik-go/optik/internal/stats"
)

// RampConfig describes one resize-under-load run.
type RampConfig struct {
	Threads int
	// StartSize is the prefill (and the capacity hint fixed tables are
	// built with).
	StartSize int
	// TargetSize is the element count at which the ramp stops.
	TargetSize int
	// SearchPct is the percentage of non-insert traffic mixed in (searches
	// over the already-inserted range); the rest are insert attempts.
	SearchPct int
	// SampleLatency enables the per-thread latency rings, so migration
	// stalls during the ramp show up in the p99/max tail.
	SampleLatency bool
}

// RampResult aggregates one ramp run.
type RampResult struct {
	// Ops is the total number of operations (insert attempts + searches).
	Ops uint64
	// Mops is throughput in million operations per second over the ramp.
	Mops float64
	// Elapsed is the wall-clock time from first to last operation.
	Elapsed time.Duration
	// FinalLen is the structure's Len() after the ramp (== TargetSize up
	// to the overshoot of the last concurrent batch).
	FinalLen int
	// Latency summarizes every sampled operation (ns); zero without
	// SampleLatency.
	Latency stats.Summary
}

// rampBatch is how many operations a worker runs between checks of the
// shared progress counter, keeping the counter off the measured hot path.
const rampBatch = 256

// RunRamp prefills the structure to StartSize and then drives insert-heavy
// traffic (keys drawn uniformly from [1, 2×TargetSize]) until TargetSize
// elements are resident. factory builds the structure under test.
func RunRamp(cfg RampConfig, factory func() ds.Set) RampResult {
	if cfg.Threads <= 0 || cfg.StartSize <= 0 || cfg.TargetSize <= cfg.StartSize {
		panic("workload: Threads and StartSize must be positive, TargetSize > StartSize")
	}
	const seed = 0x52414D50 // "RAMP"
	s := factory()
	keyRange := uint64(2 * cfg.TargetSize)
	prefill(s, cfg.StartSize, keyRange, seed)

	var inserted atomic.Int64
	inserted.Store(int64(cfg.StartSize))
	target := int64(cfg.TargetSize)
	m := window{threads: cfg.Threads}.run(func(id uint64, w *worker) uint64 {
		view := ds.HandleFor(s)
		keys := rng.NewXorshift(seed + id*0x9E3779B9)
		opr := rng.NewXorshift(seed ^ (id+1)*0xBF58476D1CE4E5B9)
		var ops uint64
		for w.next() && inserted.Load() < target {
			batchInserted := int64(0)
			for i := 0; i < rampBatch; i++ {
				key := keys.Intn(keyRange) + 1
				var begin time.Time
				if cfg.SampleLatency {
					begin = time.Now()
				}
				if int(opr.Next()%100) < cfg.SearchPct {
					view.Search(key)
				} else if view.Insert(key, key) {
					batchInserted++
				}
				if cfg.SampleLatency {
					w.lat[0].add(float64(time.Since(begin).Nanoseconds()))
				}
			}
			ops += rampBatch
			if batchInserted > 0 {
				inserted.Add(batchInserted)
			}
		}
		return ops
	})

	res := RampResult{Ops: m.ops, Mops: m.mops, Elapsed: m.elapsed, FinalLen: s.Len()}
	if cfg.SampleLatency {
		res.Latency = stats.Summarize(m.lat[0])
	}
	return res
}
