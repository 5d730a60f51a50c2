package workload

import (
	"sync/atomic"
	"time"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/internal/rng"
	"github.com/optik-go/optik/internal/stats"
)

// QueueConfig describes one queue workload (§5.4 / Figure 12): an op mix of
// enqueues vs dequeues over a queue initialized with InitialSize elements.
// The paper's three mixes are 40/60 (decreasing size), 50/50 (stable) and
// 60/40 (increasing).
type QueueConfig struct {
	Threads     int
	Duration    time.Duration
	InitialSize int
	// EnqueuePct is the percentage of enqueue operations (the rest are
	// dequeues).
	EnqueuePct    int
	SampleLatency bool
}

// Queue operation classes: the latency ring each one samples into.
const (
	qEnq = iota
	qDeq
)

// QueueResult aggregates one queue run.
type QueueResult struct {
	Ops      uint64
	Mops     float64
	Enqueues uint64
	Dequeues uint64
	// EmptyDequeues counts dequeues that found the queue empty.
	EmptyDequeues uint64
	// EnqLatency and DeqLatency are the per-operation boxplots (ns).
	EnqLatency stats.Summary
	DeqLatency stats.Summary
	Elapsed    time.Duration
}

// RunQueue drives a queue workload and returns its result.
func RunQueue(cfg QueueConfig, factory func() ds.Queue) QueueResult {
	if cfg.Threads <= 0 || cfg.Duration <= 0 {
		panic("workload: Threads and Duration must be positive")
	}
	const seed = 0xC0FFEE
	q := factory()
	for i := 0; i < cfg.InitialSize; i++ {
		q.Enqueue(uint64(i + 1))
	}

	var enqs, empties atomic.Uint64
	m := window{threads: cfg.Threads, duration: cfg.Duration}.run(func(id uint64, w *worker) uint64 {
		opr := rng.NewXorshift(seed ^ (id+1)*0x9E3779B97F4A7C15)
		var ops, enq, empty uint64
		for w.next() {
			roll := opr.Next() % 100
			var begin time.Time
			if cfg.SampleLatency {
				begin = time.Now()
			}
			kind := qEnq
			if roll < uint64(cfg.EnqueuePct) {
				q.Enqueue(opr.Next())
				enq++
			} else {
				kind = qDeq
				if _, ok := q.Dequeue(); !ok {
					empty++
				}
			}
			if cfg.SampleLatency {
				w.lat[kind].add(float64(time.Since(begin).Nanoseconds()))
			}
			ops++
			pause(opr)
		}
		enqs.Add(enq)
		empties.Add(empty)
		return ops
	})

	res := QueueResult{
		Ops: m.ops, Mops: m.mops, Elapsed: m.elapsed,
		Enqueues: enqs.Load(), EmptyDequeues: empties.Load(),
	}
	res.Dequeues = res.Ops - res.Enqueues
	if cfg.SampleLatency {
		res.EnqLatency = stats.Summarize(m.lat[qEnq])
		res.DeqLatency = stats.Summarize(m.lat[qDeq])
	}
	return res
}
