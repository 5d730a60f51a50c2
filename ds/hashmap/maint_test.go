package hashmap

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/optik-go/optik/internal/maint"
	"github.com/optik-go/optik/internal/rng"
)

// TestSchedulerReturnsTableToFloor is the acceptance scenario: a table
// serviced by a maintenance scheduler, grown to 1M elements and drained
// to 1k, must return to its floor bucket count with ZERO caller calls to
// Quiesce — the scheduler notices the idle and drives the shrink chain
// home, leaving one floor-sized slab and no slab chain behind it for the
// grown slabs' memory to hang from. (The scheduler's own suite lives in
// internal/maint; the tests here are the ones that need the table's
// white-box migration checks.)
func TestSchedulerReturnsTableToFloor(t *testing.T) {
	total := uint64(1_000_000)
	if testing.Short() {
		total = 100_000
	}
	// With 1000 survivors the shrink cascade (count*shrinkLoad < buckets)
	// runs down to 4096 buckets; a 4096 floor makes "back at the floor"
	// exact rather than "within the hysteresis band".
	const keep = 1000
	const floor = 4096
	m := NewResizable(floor)
	sched := maint.NewScheduler(0, m)
	defer sched.Stop()

	const workers = 8
	var wg sync.WaitGroup
	span := total / workers
	for g := uint64(0); g < workers; g++ {
		wg.Add(1)
		go func(lo, hi uint64) {
			defer wg.Done()
			for k := lo; k <= hi; k++ {
				m.Insert(k, k*3)
			}
		}(g*span+1, (g+1)*span)
	}
	wg.Wait()
	inserted := int(workers * span)
	if got := m.Len(); got != inserted {
		t.Fatalf("Len = %d after ramp, want %d", got, inserted)
	}
	for g := uint64(0); g < workers; g++ {
		wg.Add(1)
		go func(lo, hi uint64) {
			defer wg.Done()
			for k := lo; k <= hi; k++ {
				if k > keep {
					m.Delete(k)
				}
			}
		}(g*span+1, (g+1)*span)
	}
	wg.Wait()

	// No Quiesce anywhere: the scheduler alone must bring the bucket count
	// back to the floor once it sees the traffic stopped.
	deadline := time.Now().Add(30 * time.Second)
	for m.Buckets() != floor && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := m.Buckets(); got != floor {
		t.Fatalf("buckets = %d after idle drain, want the %d floor", got, floor)
	}
	if got := m.Len(); got != keep {
		t.Fatalf("Len = %d, want %d", got, keep)
	}
	for k := uint64(1); k <= keep; k++ {
		if v, ok := m.Search(k); !ok || v != k*3 {
			t.Fatalf("survivor Search(%d) = %v,%v", k, v, ok)
		}
	}
	if next := m.root.Load().next.Load(); next != nil {
		t.Fatalf("a %d-bucket slab is still linked behind the floor slab after the idle drain", len(next.buckets))
	}
	m.checkMigrationState(t)
}

// TestSchedulerStartStopHammer is the -race lifecycle stress: schedulers
// started on, and stopped under, a table several goroutines are churning.
// Nothing may deadlock, leak past Stop, or break conservation — a pass
// cancelled mid-quiesce must leave the migration state coherent.
func TestSchedulerStartStopHammer(t *testing.T) {
	m := NewResizable(16)
	var stop atomic.Bool
	var net atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.NewXorshift(seed)
			for !stop.Load() {
				key := r.Intn(4096) + 1
				if r.Intn(2) == 0 {
					if m.Insert(key, key) {
						net.Add(1)
					}
				} else if _, ok := m.Delete(key); ok {
					net.Add(-1)
				}
			}
		}(uint64(g + 1))
	}
	var hammerWG sync.WaitGroup
	for g := 0; g < 4; g++ {
		hammerWG.Add(1)
		go func(id int) {
			defer hammerWG.Done()
			for i := 0; i < 50; i++ {
				s := maint.NewScheduler(time.Millisecond, m)
				if (i+id)%3 == 0 {
					time.Sleep(200 * time.Microsecond)
				}
				s.Stop()
			}
		}(g)
	}
	hammerWG.Wait()
	stop.Store(true)
	wg.Wait()
	m.Quiesce()
	if got, want := int64(m.Len()), net.Load(); got != want {
		t.Fatalf("Len = %d, net = %d after hammer", got, want)
	}
	m.checkMigrationState(t)
}
