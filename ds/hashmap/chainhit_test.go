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

// TestResizableChainHitValidates is the white-box test of the chain-hit
// validation: Search must re-check the bucket version after reading a
// chain node's value, because between the key match and the value load the
// bucket can migrate and the key be overwritten in the new slab. The
// migrated-from node is frozen — nothing ever rewrites or reuses it — so
// its value is the one the key held when the bucket moved, not the one it
// holds now. The test stages that interleaving through testHookChainHit:
// the hook fires in exactly that window, links a doubled slab, drives the
// migration home (a critical section on the bucket, version bump
// included) and overwrites the key. With the validation in place Search
// restarts, follows the forwarded bucket and returns the new value; with
// the check removed it returns the frozen node's old one.
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
	inChain := false
	for cur := b.head.Load(); cur != nil; cur = cur.next.Load() {
		inChain = inChain || cur.key.Load() == target
	}
	if !inChain {
		t.Fatalf("key %d not in the overflow chain", target)
	}

	const overwritten = 424242
	fired := false
	testHookChainHit = func() {
		if fired {
			return
		}
		fired = true
		// The migration: a grow linked and driven home, so the matched
		// node is left behind in a forwarded bucket of the old slab.
		rt.next.Store(newRTable[uint64](2 * len(rt.buckets)))
		m.Quiesce()
		if b.head.Load() != forwardedNode[uint64]() {
			t.Error("bucket not forwarded inside hook")
		}
		// The overwrite lands on the key's copy in the new slab.
		if old, ok := m.Upsert(target, overwritten); !ok || old != target*10 {
			t.Errorf("Upsert(%d) = %d,%v inside hook, want %d,true", target, old, ok, target*10)
		}
	}
	defer func() { testHookChainHit = nil }()

	if v, ok := m.Search(target); !ok || v != overwritten {
		t.Fatalf("Search(%d) = %d,%v; want %d,true: the hit returned the migrated-from node's value", target, v, ok, overwritten)
	}
	if !fired {
		t.Fatal("hook never fired: key was not found via the chain-hit path")
	}
	for _, k := range keys[:len(keys)-1] {
		if v, ok := m.Search(k); !ok || v != k*10 {
			t.Fatalf("Search(%d) = %v,%v after migration, want %d,true", k, v, ok, k*10)
		}
	}
}

// TestResizableStaleChainWalksEnd pins the argument that retired the chain
// walks' periodic re-validation (docs/INVARIANTS.md, "No node is reused"):
// a node a stale reader holds keeps its key for good, and every next
// pointer leads to a larger key, so a walk from it ends without proving
// the bucket untouched. The test holds every chain node of one bucket,
// then deletes all of their keys, refills the bucket's chain with other
// keys and migrates it; each held node must keep its key and value, none
// may turn up in the new chain, and the walk from each must be strictly
// ascending and end. A table that handed an unlinked node to a later
// insert fails the first check.
func TestResizableStaleChainWalksEnd(t *testing.T) {
	const chain = 6
	m := NewResizable(8)
	rt := m.root.Load()
	all := chainKeys(rt, 2*(inlinePairs+chain))
	keys, later := all[:inlinePairs+chain], all[inlinePairs+chain:]
	for _, k := range keys {
		m.Insert(k, k*10)
	}
	b := &rt.buckets[rt.index(keys[0])]
	held := map[*node[uint64]]uint64{}
	for cur := b.head.Load(); cur != nil; cur = cur.next.Load() {
		held[cur] = cur.key.Load()
	}
	if len(held) != chain {
		t.Fatalf("%d chain nodes, want %d", len(held), chain)
	}
	for _, k := range keys {
		m.Delete(k)
	}
	for _, k := range later {
		m.Insert(k, k*10)
	}
	rt.next.Store(newRTable[uint64](2 * len(rt.buckets)))
	m.Quiesce()
	for n, k := range held {
		if got := n.key.Load(); got != k {
			t.Fatalf("held node's key went %d -> %d: an unlinked node was reused", k, got)
		}
		if v := core.LoadWord(&n.val); v != k*10 {
			t.Fatalf("held node of key %d holds %d, want its frozen %d", k, v, k*10)
		}
		prev, steps := k, 0
		for cur := n.next.Load(); cur != nil; cur = cur.next.Load() {
			if ck := cur.key.Load(); ck <= prev {
				t.Fatalf("walk from key %d met key %d after %d", k, ck, prev)
			}
			prev = cur.key.Load()
			if steps++; steps > len(held) {
				t.Fatalf("walk from key %d did not end", k)
			}
		}
	}
	for _, rt := range m.tables() {
		for i := range rt.buckets {
			for cur := rt.buckets[i].head.Load(); cur != nil && cur != forwardedNode[uint64](); cur = cur.next.Load() {
				if _, ok := held[cur]; ok {
					t.Fatalf("held node of key %d is linked again, under key %d", held[cur], cur.key.Load())
				}
			}
		}
	}
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
