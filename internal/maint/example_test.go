package maint_test

import (
	"fmt"
	"time"

	"github.com/optik-go/optik/ds/hashmap"
	"github.com/optik-go/optik/internal/maint"
)

// ExampleScheduler shows one maintenance goroutine servicing a fleet of
// tables: both tables are grown far past their floor, drained, and then
// — with zero Quiesce calls from the caller — shrunk back to their floor
// bucket counts by the shared scheduler alone.
func ExampleScheduler() {
	sched := maint.NewScheduler(time.Millisecond)
	defer sched.Stop()

	tables := []*hashmap.Resizable[uint64]{hashmap.NewResizable(64), hashmap.NewResizable(64)}
	for _, m := range tables {
		sched.Register(m)
	}
	for _, m := range tables {
		for k := uint64(1); k <= 10000; k++ {
			m.Insert(k, k)
		}
		for k := uint64(1); k <= 10000; k++ {
			m.Delete(k)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, m := range tables {
		for m.Buckets() != 64 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		fmt.Println("back at the floor:", m.Buckets(), "buckets,", m.Len(), "keys")
	}
	// Output:
	// back at the floor: 64 buckets, 0 keys
	// back at the floor: 64 buckets, 0 keys
}
