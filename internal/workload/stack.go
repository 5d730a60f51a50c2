package workload

import (
	"time"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/internal/rng"
)

// RunStack drives a 50/50 push/pop workload (§5.5's brief stack
// experiment) and returns throughput in Mops/s.
func RunStack(threads int, duration time.Duration, factory func() ds.Stack) float64 {
	if threads <= 0 || duration <= 0 {
		panic("workload: threads and duration must be positive")
	}
	s := factory()
	for i := 0; i < 1024; i++ {
		s.Push(uint64(i + 1))
	}
	return window{threads: threads, duration: duration}.run(func(id uint64, w *worker) uint64 {
		r := rng.NewXorshift(id + 1)
		var ops uint64
		for w.next() {
			if r.Next()%2 == 0 {
				s.Push(r.Next())
			} else {
				s.Pop()
			}
			ops++
			pause(r)
		}
		return ops
	}).mops
}
