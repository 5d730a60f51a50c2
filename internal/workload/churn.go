// The churn scenario: the inverse-and-back of the ramp. Long-lived
// traffic-serving systems do not only grow — a table sized for peak load
// must hand memory back when a delete storm drains it, or every scan
// afterwards walks mostly-empty slabs forever. Each churn cycle drives the
// structure up to a peak with insert-heavy traffic, optionally holds it
// there through a read-only steady phase, then down to a trough with
// delete-heavy traffic, with searches mixed into the update phases; like
// the ramp it is work-bound, not time-bound. Per-op latency is sampled on
// request so the cost of in-flight migrations — invisible in throughput
// averages — shows up in the p99/max tail, and the phase transitions
// drive structures that support it (hashmap.Resizable) to quiescence, so
// a table that can shrink must actually have shrunk by the time the run
// reports its final bucket count.

package workload

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/internal/rng"
	"github.com/optik-go/optik/internal/stats"
)

// Quiescer is implemented by structures with cooperative background work
// (incremental resize migration) that can be driven to completion on
// demand. The churn driver calls it at phase transitions and after the
// run, mirroring how an operator would drain maintenance between traffic
// bursts.
type Quiescer interface {
	Quiesce()
}

// bucketed and resizeCounted expose the monitoring hooks of the resizable
// tables without widening ds.Set.
type bucketed interface{ Buckets() int }
type resizeCounted interface{ Resizes() int }

// phase kinds within a cycle, each also the index of its latency ring;
// churnAll and churnSearch ring every sample and the update phases'
// searches.
const (
	phaseGrow = iota
	phaseSteady
	phaseDrain
	churnAll
	churnSearch
)

// ChurnConfig describes one churn run.
type ChurnConfig struct {
	Threads int
	// PeakSize is the element count at which a grow phase flips onward.
	PeakSize int
	// TroughSize is the element count at which a drain phase flips back;
	// 0 defaults to PeakSize/16.
	TroughSize int
	// Cycles is the number of round trips; 0 defaults to 1.
	Cycles int
	// SearchPct is the percentage of searches mixed into the grow and
	// drain phases.
	SearchPct int
	// SteadyOps, when positive, inserts a read-only steady phase of that
	// many operations (across all threads) between each grow and drain:
	// pure searches against the table at its peak, freshly quiesced — the
	// measure of scan cost against a table sized for the traffic that
	// just stopped.
	SteadyOps int
	// SampleLatency enables the per-thread, per-phase latency rings.
	SampleLatency bool
}

// ChurnResult aggregates one churn run.
type ChurnResult struct {
	// Ops is the total number of operations across all phases.
	Ops uint64
	// Mops is throughput in million operations per second over the run.
	Mops float64
	// Elapsed is the wall-clock time from first to last operation.
	Elapsed time.Duration
	// Net is the net number of successful inserts minus deletes; once
	// quiescent it must equal FinalLen exactly.
	Net int
	// FinalLen is the structure's Len() after the final quiesce.
	FinalLen int
	// FinalBuckets is the bucket count after the final quiesce, for
	// structures that expose one (0 otherwise). A resizable table must
	// end near its floor, not at its peak.
	FinalBuckets int
	// Resizes is the lifetime resize count, for structures that expose
	// one (0 otherwise).
	Resizes int
	// Latency summarizes every sampled operation (ns); zero without
	// SampleLatency. Migration stalls live in P99/Max.
	Latency stats.Summary
	// GrowLatency and DrainLatency split Latency by update phase.
	GrowLatency, DrainLatency stats.Summary
	// SearchLatency summarizes the searches mixed into the update phases:
	// the measure of whether readers stayed lock-free through migrations.
	SearchLatency stats.Summary
	// SteadyLatency summarizes the read-only steady phase (zero without
	// SteadyOps): search latency against a quiescent table still sized
	// for its peak.
	SteadyLatency stats.Summary
	// Quiesces summarizes the phase-transition quiesce calls (ns per
	// call) — the cost of driving a resize migration home all at once.
	Quiesces stats.Summary
}

// churnBatch is how many operations a worker runs between checks of the
// shared phase and element counters, keeping them off the measured path.
const churnBatch = 256

// RunChurn drives cfg.Cycles grow/(steady/)drain round trips against a
// fresh structure from factory and returns the aggregate result.
func RunChurn(cfg ChurnConfig, factory func() ds.Set) ChurnResult {
	if cfg.Threads <= 0 || cfg.PeakSize <= 0 {
		panic("workload: Threads and PeakSize must be positive")
	}
	if cfg.TroughSize == 0 {
		cfg.TroughSize = cfg.PeakSize / 16
	}
	if cfg.TroughSize < 0 || cfg.TroughSize >= cfg.PeakSize {
		panic("workload: TroughSize must be in [0, PeakSize)")
	}
	if cfg.SteadyOps < 0 {
		panic("workload: SteadyOps must be non-negative")
	}
	if cfg.Cycles == 0 {
		cfg.Cycles = 1
	}
	const seed = 0x4348524E // "CHRN"
	s := factory()
	keyRange := uint64(2 * cfg.PeakSize)

	perCycle := int64(2)
	if cfg.SteadyOps > 0 {
		perCycle = 3
	}
	// kindOf maps a phase index to its kind under either cycle shape.
	kindOf := func(p int64) int {
		k := p % perCycle
		if perCycle == 2 && k == 1 {
			return phaseDrain
		}
		return int(k)
	}

	var (
		phase     atomic.Int64 // index into the cycle schedule
		live      atomic.Int64 // net successful inserts - deletes
		steadyOps atomic.Int64 // operations performed in steady phases
		mu        sync.Mutex
		quiesces  []float64
	)
	phases := perCycle * int64(cfg.Cycles)
	peak, trough := int64(cfg.PeakSize), int64(cfg.TroughSize)

	// quiesce drives cooperative maintenance home; its duration is the
	// stall an operator would see draining a resize in one go.
	quiesce := func() {
		q, ok := s.(Quiescer)
		if !ok {
			return
		}
		begin := time.Now()
		q.Quiesce()
		ns := float64(time.Since(begin).Nanoseconds())
		mu.Lock()
		quiesces = append(quiesces, ns)
		mu.Unlock()
	}

	m := window{threads: cfg.Threads}.run(func(id uint64, w *worker) uint64 {
		view := ds.HandleFor(s)
		keys := rng.NewXorshift(seed + id*0x9E3779B9)
		opr := rng.NewXorshift(seed ^ (id+1)*0xBF58476D1CE4E5B9)
		var ops uint64
		for w.next() {
			p := phase.Load()
			if p >= phases {
				break
			}
			kind := kindOf(p)
			delta := int64(0)
			for i := 0; i < churnBatch; i++ {
				key := keys.Intn(keyRange) + 1
				isSearch := kind == phaseSteady || int(opr.Next()%100) < cfg.SearchPct
				var begin time.Time
				if cfg.SampleLatency {
					begin = time.Now()
				}
				switch {
				case isSearch:
					view.Search(key)
				case kind == phaseGrow:
					if view.Insert(key, key) {
						delta++
					}
				default:
					if _, ok := view.Delete(key); ok {
						delta--
					}
				}
				if cfg.SampleLatency {
					ns := float64(time.Since(begin).Nanoseconds())
					w.lat[churnAll].add(ns)
					w.lat[kind].add(ns)
					if isSearch && kind != phaseSteady {
						w.lat[churnSearch].add(ns)
					}
				}
			}
			ops += churnBatch
			l := live.Add(delta)
			flip := false
			switch kind {
			case phaseGrow:
				flip = l >= peak
			case phaseDrain:
				flip = l <= trough
			case phaseSteady:
				// Work-bound: the phase ends after SteadyOps operations
				// across all threads (stale batches from an already
				// flipped phase only overshoot the count, harmlessly).
				done := steadyOps.Add(churnBatch)
				flip = done >= (p/perCycle+1)*int64(cfg.SteadyOps)
			}
			if flip {
				// Exactly one worker flips each phase; it pays the
				// quiesce while the others churn on.
				if phase.CompareAndSwap(p, p+1) {
					quiesce()
				}
			}
		}
		return ops
	})
	// Stale batches may have raced the last flip; settle once more.
	quiesce()

	res := ChurnResult{
		Ops:      m.ops,
		Mops:     m.mops,
		Elapsed:  m.elapsed,
		Net:      int(live.Load()),
		FinalLen: s.Len(),
	}
	if b, ok := s.(bucketed); ok {
		res.FinalBuckets = b.Buckets()
	}
	if rc, ok := s.(resizeCounted); ok {
		res.Resizes = rc.Resizes()
	}
	if cfg.SampleLatency {
		res.Latency = stats.Summarize(m.lat[churnAll])
		res.GrowLatency = stats.Summarize(m.lat[phaseGrow])
		res.DrainLatency = stats.Summarize(m.lat[phaseDrain])
		res.SearchLatency = stats.Summarize(m.lat[churnSearch])
		res.SteadyLatency = stats.Summarize(m.lat[phaseSteady])
	}
	res.Quiesces = stats.Summarize(quiesces)
	return res
}
