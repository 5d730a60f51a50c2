package maint_test

import (
	"fmt"
	"time"

	"github.com/optik-go/optik/ds/hashmap"
	"github.com/optik-go/optik/internal/maint"
)

// ExampleScheduler shows one maintenance goroutine servicing the two
// tables it was built with: both tables are grown far past their floor, drained, and then
// — with zero Quiesce calls from the caller — shrunk back to their floor
// bucket counts by the shared scheduler alone.
func ExampleScheduler() {
	tables := []*hashmap.Resizable[uint64]{hashmap.NewResizable(64), hashmap.NewResizable(64)}
	sched := maint.NewScheduler(time.Millisecond, tables[0], tables[1])
	defer sched.Stop()

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
