// Package hashmap implements the hash tables of §5.2, under the graph keys
// of Figure 10:
//
//   - OptikGL ("optik-gl"): per-bucket OPTIK-based global-lock lists — the
//     fastest of the paper's node-based hash tables.
//   - Optik ("optik"): per-bucket fine-grained OPTIK lists.
//   - OptikMap ("optik-map"): per-bucket OPTIK array maps (fixed-capacity
//     buckets allocated in one contiguous slab, as in the paper).
//   - LazyGL ("lazy-gl"): per-bucket lock, updates always acquire it
//     (feasible or not); searches are lock-free.
//   - Java ("java"): a ConcurrentHashMap-style table [34] with lock
//     striping over n segments; updates lock the segment directly.
//   - JavaOptik ("java-optik"): the paper's optimization of Java — a
//     version-validated read-only pass returns infeasible updates without
//     locking and saves feasible updates the second bucket traversal.
//
// The paper's tables have a fixed number of buckets (sized equal to the
// initial element count) and hash by key modulo buckets.
//
// Beyond the paper, the package adds two tables built on a cache-conscious
// bucket slab (slab.go):
//
//   - Slab ("slab"): OptikGL's locking discipline on a contiguous slab of
//     64-byte buckets, each co-locating the OPTIK lock, the overflow-chain
//     head and a three-pair inline prefix. OptikGL's packed parallel
//     arrays put eight bucket locks on one cache line — every update CAS
//     false-shares with seven neighbor buckets — and split lock and head
//     across two lines, so even an uncontended operation takes two misses.
//     The slab bucket makes the common hit/miss/insert/delete path touch
//     exactly one line and gives every bucket lock a private line.
//   - Resizable ("resizable"): the slab plus optimistic resizing in both
//     directions — lock-free reads across an old/new slab pair, per-bucket
//     OPTIK-validated incremental migration (bucket-at-a-time growing,
//     bucket-pair merges under both OPTIK locks shrinking), and a striped
//     size counter whose hysteresis band (double past load 2, halve below
//     load 1/4, never below the initial floor) triggers the resizes and
//     makes Len O(shards) instead of O(n). Chain nodes are never reused:
//     an unlinked or migrated node is frozen until the collector frees it.
//     The table implements the maintenance scheduler's Maintainer
//     contract (internal/maint), so a scheduled table is quiesced when
//     traffic idles. See resizable.go for the design.
package hashmap

import (
	"sync/atomic"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/ds/arraymap"
	"github.com/optik-go/optik/ds/list"
	"github.com/optik-go/optik/internal/backoff"
	"github.com/optik-go/optik/internal/core"
)

// bucketIndex is the shared hash function: keys are already well spread by
// the workloads (uniform/zipfian draws), so modulo suffices, exactly as in
// the reference implementation.
func bucketIndex(key uint64, buckets int) int {
	return int(key % uint64(buckets))
}

// Optik is a hash table whose buckets are fine-grained OPTIK lists (§4.2).
type Optik struct {
	buckets []*list.Optik
}

var _ ds.Set = (*Optik)(nil)

// NewOptik returns a table with nbuckets fine-grained OPTIK list buckets.
func NewOptik(nbuckets int) *Optik {
	if nbuckets <= 0 {
		panic("hashmap: nbuckets must be positive")
	}
	t := &Optik{buckets: make([]*list.Optik, nbuckets)}
	for i := range t.buckets {
		t.buckets[i] = list.NewOptik()
	}
	return t
}

func (t *Optik) bucket(key uint64) *list.Optik {
	return t.buckets[bucketIndex(key, len(t.buckets))]
}

// Search returns the value stored under key, if present.
func (t *Optik) Search(key uint64) (uint64, bool) { return t.bucket(key).Search(key) }

// Insert adds key→val if absent.
func (t *Optik) Insert(key, val uint64) bool { return t.bucket(key).Insert(key, val) }

// Delete removes key, returning its value, if present.
func (t *Optik) Delete(key uint64) (uint64, bool) { return t.bucket(key).Delete(key) }

// Len sums the bucket sizes (not linearizable).
func (t *Optik) Len() int {
	n := 0
	for _, b := range t.buckets {
		n += b.Len()
	}
	return n
}

// OptikGL is a hash table with per-bucket OPTIK locking ("Intuitively, the
// list protected by a global lock, resulting in per-bucket locking, is more
// suitable for hash tables"). Buckets are lean nil-terminated sorted chains
// — the same layout as LazyGL/Java, so the comparison isolates the locking
// discipline: searches and infeasible updates never lock, and a feasible
// update's single validate-and-lock CAS replaces the second bucket
// traversal.
type OptikGL struct {
	bucketLocks []core.Lock
	heads       []atomic.Pointer[chainNode]
}

var _ ds.Set = (*OptikGL)(nil)

// NewOptikGL returns a table with nbuckets per-bucket-OPTIK-locked buckets.
func NewOptikGL(nbuckets int) *OptikGL {
	if nbuckets <= 0 {
		panic("hashmap: nbuckets must be positive")
	}
	return &OptikGL{
		bucketLocks: make([]core.Lock, nbuckets),
		heads:       make([]atomic.Pointer[chainNode], nbuckets),
	}
}

// Search returns the value stored under key, if present, without locking.
func (t *OptikGL) Search(key uint64) (uint64, bool) {
	ds.CheckKey(key)
	b := bucketIndex(key, len(t.heads))
	for cur := t.heads[b].Load(); cur != nil && cur.key <= key; cur = cur.next.Load() {
		if cur.key == key {
			return cur.val, true
		}
	}
	return 0, false
}

// Insert adds key→val if absent. The optimistic traversal decides
// feasibility; TryLockVersion validates it and locks in one CAS.
func (t *OptikGL) Insert(key, val uint64) bool {
	ds.CheckKey(key)
	b := bucketIndex(key, len(t.heads))
	lock := &t.bucketLocks[b]
	var bo backoff.Backoff
	for {
		vn := lock.GetVersion()
		var pred *chainNode
		cur := t.heads[b].Load()
		for cur != nil && cur.key < key {
			pred, cur = cur, cur.next.Load()
		}
		if cur != nil && cur.key == key {
			return false // infeasible: no locking
		}
		if !lock.TryLockVersion(vn) {
			bo.Wait()
			continue
		}
		n := &chainNode{key: key, val: val}
		n.next.Store(cur)
		if pred == nil {
			t.heads[b].Store(n)
		} else {
			pred.next.Store(n)
		}
		lock.Unlock()
		return true
	}
}

// Delete removes key, returning its value, if present. A miss returns
// without locking.
func (t *OptikGL) Delete(key uint64) (uint64, bool) {
	ds.CheckKey(key)
	b := bucketIndex(key, len(t.heads))
	lock := &t.bucketLocks[b]
	var bo backoff.Backoff
	for {
		vn := lock.GetVersion()
		var pred *chainNode
		cur := t.heads[b].Load()
		for cur != nil && cur.key < key {
			pred, cur = cur, cur.next.Load()
		}
		if cur == nil || cur.key != key {
			return 0, false
		}
		if !lock.TryLockVersion(vn) {
			bo.Wait()
			continue
		}
		if pred == nil {
			t.heads[b].Store(cur.next.Load())
		} else {
			pred.next.Store(cur.next.Load())
		}
		lock.Unlock()
		return cur.val, true
	}
}

// Len sums the chain lengths (not linearizable).
func (t *OptikGL) Len() int {
	n := 0
	for i := range t.heads {
		for cur := t.heads[i].Load(); cur != nil; cur = cur.next.Load() {
			n++
		}
	}
	return n
}

// DefaultBucketCap is OptikMap's default per-bucket array capacity. The
// paper's map returns false for insertions into a full bucket; eight slots
// per bucket keeps that rare at one element per bucket on average.
const DefaultBucketCap = 8

// OptikMap is a hash table whose buckets are OPTIK array maps (§4.1). Its
// buckets are fixed-size arrays, so insertions into a full bucket fail —
// matching the paper's design, which trades resizing for cache-friendly
// contiguous buckets.
type OptikMap struct {
	buckets []*arraymap.Optik
}

var _ ds.Set = (*OptikMap)(nil)

// NewOptikMap returns a table with nbuckets array-map buckets of the given
// per-bucket capacity (DefaultBucketCap if cap <= 0).
func NewOptikMap(nbuckets, capacity int) *OptikMap {
	if nbuckets <= 0 {
		panic("hashmap: nbuckets must be positive")
	}
	if capacity <= 0 {
		capacity = DefaultBucketCap
	}
	t := &OptikMap{buckets: make([]*arraymap.Optik, nbuckets)}
	for i := range t.buckets {
		t.buckets[i] = arraymap.NewOptik(capacity)
	}
	return t
}

func (t *OptikMap) bucket(key uint64) *arraymap.Optik {
	return t.buckets[bucketIndex(key, len(t.buckets))]
}

// Search returns the value stored under key, if present.
func (t *OptikMap) Search(key uint64) (uint64, bool) { return t.bucket(key).Search(key) }

// Insert adds key→val if absent and the bucket has a free slot.
func (t *OptikMap) Insert(key, val uint64) bool { return t.bucket(key).Insert(key, val) }

// Delete removes key, returning its value, if present.
func (t *OptikMap) Delete(key uint64) (uint64, bool) { return t.bucket(key).Delete(key) }

// Len sums the bucket sizes (not linearizable).
func (t *OptikMap) Len() int {
	n := 0
	for _, b := range t.buckets {
		n += b.Len()
	}
	return n
}
