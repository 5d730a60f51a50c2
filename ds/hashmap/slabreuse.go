package hashmap

import (
	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/internal/backoff"
	"github.com/optik-go/optik/internal/core"
	"github.com/optik-go/optik/internal/qsbr"
)

// SlabReuse is the fixed-capacity slab table with the node lifecycle of
// Resizable but none of its resize machinery: overflow-chain nodes retire
// to a per-table qsbr pool on delete and recycle into later inserts. It
// exists to isolate the reclamation ablation — Slab (never recycles) vs
// SlabReuse (recycles) differ in exactly one dimension, so the
// BenchmarkBucketLayout rows attribute the allocation win (and the
// validation cost that buys it) to reuse alone, with no migration noise.
//
// Reuse changes the read-side obligations, the same way it did for
// Resizable (PR 3's headline fix): Slab's chain walks trust whatever they
// traverse because an unlinked node is frozen forever, but a recycled
// node's key, value and next pointer are rewritten by its next owner.
// Every chain outcome therefore validates the bucket version before it is
// trusted — a hit before returning the value (the node may have been
// retired and rewritten between the key load and the value load), a miss
// before returning false (a walk over a recycled node can wander off this
// bucket's chain entirely and skip a key that was present all along) —
// and long walks re-validate every chainGuard hops so a scan over
// mutating pointers cannot chase them forever. Retirement only happens
// inside a critical section on the node's bucket, so an unchanged version
// proves the walk saw the live chain. The inline fast paths are untouched:
// at the paper's load factor the common operation still completes inside
// one cache line with Slab's exact cost.
type SlabReuse struct {
	buckets []bucket[uint64]
	pool    *qsbr.Pool
}

var _ ds.Set = (*SlabReuse)(nil)

// NewSlabReuse returns a fixed-capacity slab table with nbuckets buckets
// and qsbr-backed chain-node recycling.
func NewSlabReuse(nbuckets int) *SlabReuse {
	if nbuckets <= 0 {
		panic("hashmap: nbuckets must be positive")
	}
	return &SlabReuse{
		buckets: newBucketSlab[uint64](nbuckets),
		pool:    qsbr.NewPool(qsbr.NewDomain(), 0),
	}
}

func (t *SlabReuse) bucket(key uint64) *bucket[uint64] {
	return &t.buckets[bucketIndex(key, len(t.buckets))]
}

// Search returns the value stored under key, if present. Lock-free; every
// chain outcome is version-validated against node reuse (see the type
// comment). An inline hit validates exactly as Slab's does.
func (t *SlabReuse) Search(key uint64) (uint64, bool) {
	ds.CheckKey(key)
	b := t.bucket(key)
restart:
	vn := b.lock.GetVersionWait()
	for i := range b.inline {
		if b.inline[i].key.Load() == key {
			val := core.LoadWord(&b.inline[i].val)
			if b.lock.GetVersion().Same(vn) {
				return val, true
			}
			goto restart
		}
	}
	hops := 0
	for cur := b.head.Load(); cur != nil; cur = cur.next.Load() {
		k := cur.key.Load()
		if k > key {
			break
		}
		if k == key {
			val := core.LoadWord(&cur.val)
			if b.lock.GetVersion().Same(vn) {
				return val, true
			}
			goto restart
		}
		if hops++; hops&chainGuardMask == 0 && !b.lock.GetVersion().Same(vn) {
			goto restart
		}
	}
	if b.lock.GetVersion().Same(vn) {
		return 0, false
	}
	goto restart
}

// Insert adds key→val if absent. The feasible path validates-and-locks in
// one CAS and links a node recycled from the free list when one is
// available; the infeasible (duplicate) path returns without locking once
// the version validates its scan.
func (t *SlabReuse) Insert(key, val uint64) bool {
	ds.CheckKey(key)
	rc := reclaimer{Pool: t.pool}
	defer rc.Release()
	b := t.bucket(key)
	var bo backoff.Backoff
retry:
	for {
		vn := b.lock.GetVersion()
		free := -1
		dup := false
		for i := range b.inline {
			switch b.inline[i].key.Load() {
			case key:
				dup = true
			case 0:
				if free < 0 {
					free = i
				}
			}
		}
		if dup {
			return false // infeasible: no locking at all
		}
		var pred *node[uint64]
		cur := b.head.Load()
		for hops := 0; cur != nil && cur.key.Load() < key; {
			pred, cur = cur, cur.next.Load()
			if hops++; hops&chainGuardMask == 0 && !b.lock.GetVersion().Same(vn) {
				continue retry
			}
		}
		if cur != nil && cur.key.Load() == key {
			if b.lock.GetVersion().Same(vn) {
				return false // the chain duplicate was really there
			}
			continue
		}
		if !b.lock.TryLockVersion(vn) {
			bo.Wait()
			continue
		}
		b.put(key, val, free, pred, cur, &rc)
		b.lock.Unlock()
		return true
	}
}

// Delete removes key, returning its value, if present. The unlinked chain
// node retires to the qsbr free list — its value is read inside the
// critical section, never after, because retirement makes the node
// eligible for recycling the moment the version bump publishes. A chain
// miss validates before returning (unlike Slab's, which may trust a
// frozen chain).
func (t *SlabReuse) Delete(key uint64) (uint64, bool) {
	ds.CheckKey(key)
	rc := reclaimer{Pool: t.pool}
	defer rc.Release()
	b := t.bucket(key)
	var bo backoff.Backoff
retry:
	for {
		vn := b.lock.GetVersionWait()
		slot := -1
		for i := range b.inline {
			if b.inline[i].key.Load() == key {
				slot = i
				break
			}
		}
		if slot >= 0 {
			if !b.lock.TryLockVersion(vn) {
				bo.Wait()
				continue
			}
			// Validated: the slot still holds key, so the value is its.
			val := core.LoadWord(&b.inline[slot].val)
			b.inline[slot].key.Store(0)
			b.lock.Unlock()
			return val, true
		}
		var pred *node[uint64]
		cur := b.head.Load()
		for hops := 0; cur != nil && cur.key.Load() < key; {
			pred, cur = cur, cur.next.Load()
			if hops++; hops&chainGuardMask == 0 && !b.lock.GetVersion().Same(vn) {
				continue retry
			}
		}
		if cur == nil || cur.key.Load() != key {
			if b.lock.GetVersion().Same(vn) {
				return 0, false
			}
			continue
		}
		if !b.lock.TryLockVersion(vn) {
			bo.Wait()
			continue
		}
		val := core.LoadWord(&cur.val)
		b.unlinkNode(pred, cur)
		b.lock.Unlock()
		rc.Retire(cur)
		return val, true
	}
}

// Len sums the bucket sizes (not linearizable).
func (t *SlabReuse) Len() int {
	n := 0
	for i := range t.buckets {
		n += t.buckets[i].size()
	}
	return n
}

// ReclaimStats reports the table's lifetime chain-node reclamation
// counters (racy snapshot; for monitoring and the reuse tests).
func (t *SlabReuse) ReclaimStats() (retired, reclaimed, reused uint64) {
	return t.pool.Domain().Stats()
}
