package workload

import (
	"runtime"
	"sync"
	"time"

	"github.com/optik-go/optik/internal/core"
)

// window is one measured run: the protocol every Run* function shares.
// The workers build their per-thread state first and meet at a ready
// barrier; only then does the window open, so setup — a zipfian
// generator's O(key range) zeta, a connection's buffers — is never timed.
type window struct {
	threads int
	// duration bounds the window. Zero makes it work-bound: it closes
	// when every worker's body has returned (RunRamp, RunChurn).
	duration time.Duration
	// atDeadline, when set, runs as the deadline passes, while the
	// workers finish their last operations: a reading taken under the
	// window's load.
	atDeadline func()
}

// measured is a window's outcome.
type measured struct {
	// ops sums the bodies' returns: the operations throughput counts.
	ops     uint64
	elapsed time.Duration
	mops    float64
	// lat holds, per ring index, every worker's latency samples.
	lat [numOpKinds][]float64
}

// gate is the state the workers of one window share.
type gate struct {
	ready   sync.WaitGroup
	started chan struct{}
	// deadline closes a time-bound window; the zero time never does. It
	// is written before started is closed and only read after.
	deadline time.Time
}

// worker is one worker's view of the window. The core allocates each
// worker separately and pads it, so the loop counter and the latency
// rings, written on every operation, never share a cache line with
// another worker's.
type worker struct {
	it  uint64
	g   *gate
	ops uint64
	// lat are the worker's latency rings: each workload picks its own
	// ring indices and samples only when its config asks it to.
	lat [numOpKinds]ring
	_   core.CacheLinePad
}

// run spawns the workers, each running body on its own goroutine: body
// builds the worker's state, loops while w.next() holds — every body
// calls it at least once: that call is the barrier — and returns the
// number of operations it completed. run opens the window once all
// workers are ready, closes it at the deadline (or, work-bound, when
// the bodies return), and merges the latency rings.
func (win window) run(body func(id uint64, w *worker) uint64) measured {
	// Collect garbage from previous runs (earlier algorithms' structures)
	// before the measured window, so the last series in a sweep is not
	// taxed with its predecessors' dead heap.
	runtime.GC()
	started := make(chan struct{})
	g := &gate{started: started}
	g.ready.Add(win.threads)
	workers := make([]*worker, win.threads)
	var done sync.WaitGroup
	done.Add(win.threads)
	for id := range workers {
		w := &worker{g: g}
		workers[id] = w
		go func() {
			defer done.Done()
			w.ops = body(uint64(id), w)
		}()
	}
	g.ready.Wait()
	begin := time.Now()
	if win.duration > 0 {
		g.deadline = begin.Add(win.duration)
	}
	close(started)
	if win.atDeadline != nil {
		time.Sleep(win.duration)
		win.atDeadline()
	}
	done.Wait()

	m := measured{elapsed: time.Since(begin)}
	for _, w := range workers {
		m.ops += w.ops
		for k := range w.lat {
			m.lat[k] = append(m.lat[k], w.lat[k].buf...)
		}
	}
	m.mops = float64(m.ops) / m.elapsed.Seconds() / 1e6
	return m
}

// next reports whether the body should run another operation (or, for
// a work-bound workload, another batch). The first call is the ready
// barrier: it returns once every worker has built its state and the
// window has opened. After that it checks the deadline once every 32
// calls, so a clock read stays off the per-op path. The workers read the
// clock themselves rather than wait for a stop signal: with more
// workers than cores, a goroutine sleeping until the deadline is woken
// tens of milliseconds late, and the window would stretch with it.
func (w *worker) next() bool {
	w.it++
	if w.it&31 != 1 {
		return true
	}
	return w.poll()
}

func (w *worker) poll() bool {
	if w.it == 1 {
		w.g.ready.Done()
		<-w.g.started
	}
	return w.g.deadline.IsZero() || time.Now().Before(w.g.deadline)
}

// ring is a fixed-capacity latency sample ring (the paper's per-thread
// 16K arrays): append until full, then overwrite oldest.
type ring struct {
	buf []float64
	pos int
}

func (r *ring) add(ns float64) {
	if r.buf == nil {
		// Pre-size up front: growth reallocations inside the measured
		// window would pollute the very tail the rings exist to capture.
		r.buf = make([]float64, 0, SampleRingSize)
	}
	if len(r.buf) < SampleRingSize {
		r.buf = append(r.buf, ns)
		return
	}
	r.buf[r.pos] = ns
	r.pos = (r.pos + 1) % SampleRingSize
}
