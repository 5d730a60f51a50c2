package hashmap

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/optik-go/optik/internal/core"
	"github.com/optik-go/optik/internal/rng"
)

// chainKeys brute-forces keys that all hash into one bucket of t, in
// ascending order (so the first inlinePairs inserted land in the inline
// prefix and the rest spill to the overflow chain).
func chainKeys[V any](t *rtable[V], n int) []uint64 {
	byBucket := map[int][]uint64{}
	for k := uint64(1); ; k++ {
		i := t.index(k)
		byBucket[i] = append(byBucket[i], k)
		if len(byBucket[i]) == n {
			return byBucket[i]
		}
	}
}

// TestResizableChainHitValidates is the white-box test of the headline
// bugfix: Search's chain-hit path must re-validate the bucket version
// before trusting the value it read, because under node reuse the matched
// node can be retired and recycled — key and value rewritten by its next
// owner — between the key load and the value load. The test stages that
// interleaving deterministically through testHookChainHit: the hook fires
// in exactly that window, deletes the key (retiring its node with a
// version bump, as any real retirement does) and rewrites the node the
// way a recycling insert would. With the validation in place Search
// discards the torn read, restarts, and reports a clean miss; with the
// fix reverted it returns the next owner's value under the deleted key.
func TestResizableChainHitValidates(t *testing.T) {
	m := NewResizable(8)
	rt := m.root.Load()
	keys := chainKeys(rt, inlinePairs+2)
	for _, k := range keys {
		if !m.Insert(k, k*10) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}
	target := keys[len(keys)-1] // inserted last: in the overflow chain
	b := &rt.buckets[rt.index(target)]
	var nd *node[uint64]
	for cur := b.head.Load(); cur != nil; cur = cur.next.Load() {
		if cur.key.Load() == target {
			nd = cur
			break
		}
	}
	if nd == nil {
		t.Fatalf("key %d not in the overflow chain", target)
	}

	fired := false
	testHookChainHit = func() {
		if fired {
			return
		}
		fired = true
		// The retirement: a real critical section on the bucket (version
		// bump included), after which the node is recycling-eligible.
		if _, ok := m.Delete(target); !ok {
			t.Errorf("Delete(%d) failed inside hook", target)
		}
		// The recycle: what put does when the free list hands the node to
		// an insert of a different key.
		nd.key.Store(keys[0])
		core.StoreWord(&nd.val, 424242)
	}
	defer func() { testHookChainHit = nil }()

	if v, ok := m.Search(target); ok {
		t.Fatalf("Search(%d) = %d,true through a recycled node; want a validated miss", target, v)
	}
	if !fired {
		t.Fatal("hook never fired: key was not found via the chain-hit path")
	}
	// The rest of the bucket is untouched by the simulated recycle as far
	// as the map's contract goes: every other key still resolves.
	for _, k := range keys[:len(keys)-1] {
		if v, ok := m.Search(k); !ok || v != k*10 {
			t.Fatalf("Search(%d) = %v,%v after recycle, want %d,true", k, v, ok, k*10)
		}
	}
}

// TestResizableChainNodeReuse pins the reclamation loop end to end:
// steady-state churn (insert a working set, drain it, repeat) must retire
// chain nodes into the qsbr free lists and serve later allocations from
// them, not from the heap.
func TestResizableChainNodeReuse(t *testing.T) {
	const n = 10000
	m := NewResizable(64)
	for cycle := 0; cycle < 3; cycle++ {
		for k := uint64(1); k <= n; k++ {
			m.Insert(k, k)
		}
		m.Quiesce()
		for k := uint64(1); k <= n; k++ {
			m.Delete(k)
		}
		m.Quiesce()
	}
	retired, reclaimed, reused := m.ReclaimStats()
	if retired == 0 {
		t.Fatal("no chain nodes ever retired across three churn cycles")
	}
	if reclaimed == 0 {
		t.Fatal("nodes retired but none reclaimed: sweeps never ran")
	}
	if reused == 0 {
		t.Fatal("nodes reclaimed but none reused: allocations never hit the free list")
	}
	if reused < retired/8 {
		t.Fatalf("reuse is marginal: %d reused of %d retired", reused, retired)
	}
	t.Logf("reclamation: %d retired, %d reclaimed, %d reused", retired, reclaimed, reused)
}

// TestResizableQuiesceUnderLoad pins the Quiesce backoff fix: a quiescer
// racing sustained write traffic must keep terminating (the writers keep
// claiming the migration work Quiesce wants to help with; before the
// backoff it would busy-spin on the root pointer, and a livelocked
// Quiesce would hang this test's deadline).
func TestResizableQuiesceUnderLoad(t *testing.T) {
	m := NewResizable(16)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.NewXorshift(seed)
			for !stop.Load() {
				key := r.Intn(50000) + 1
				if r.Intn(2) == 0 {
					m.Insert(key, key)
				} else {
					m.Delete(key)
				}
			}
		}(uint64(g + 1))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		deadline := time.Now().Add(500 * time.Millisecond)
		for time.Now().Before(deadline) {
			m.Quiesce()
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Error("Quiesce failed to return under sustained write load")
	}
	stop.Store(true)
	wg.Wait()
	m.Quiesce()
	m.checkMigrationState(t)
}
