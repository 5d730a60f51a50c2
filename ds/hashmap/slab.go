package hashmap

import (
	"reflect"
	"sync/atomic"
	"unsafe"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/internal/backoff"
	"github.com/optik-go/optik/internal/core"
)

// This file implements the cache-conscious bucket slab shared by Slab and
// Resizable. OptikGL stores bucket locks and head pointers in two separate
// densely-packed arrays: eight core.Locks share a cache line, so every
// update CAS false-shares with seven neighbor buckets, and even an
// uncontended operation takes two misses (the lock line plus the head
// line). A slab bucket instead packs everything an operation touches into
// exactly one 64-byte line:
//
//	lock (8B) | overflow head (8B) | 3 × inline key/value pair (48B)
//
// The inline prefix is an arraymap-style fixed array, so at the paper's
// load factor (about one element per bucket) the common hit, miss, insert
// and delete all complete inside a single cache line; only buckets holding
// four or more keys spill into a sorted overflow chain of slab-private
// nodes.

// inlinePairs is the number of key/value pairs stored inside the bucket
// line itself. 3 is what fits: 64 = 8 (lock) + 8 (head) + 3×16.
const inlinePairs = 3

// The value a table stores beside each key is one 8-byte word, V: a
// uint64 for the paper's tables and the benchmarks, a pointer where the
// index holds a layer's values itself (store.Strings keeps each *pair
// there, and nowhere else). core.Word moves it atomically either way. An
// entry the table no longer maps keeps nothing alive for long: a delete
// zeroes the inline slot's word, and an unlinked chain node, with the
// word it froze, is the collector's once no stale reader holds it.

// node is one overflow-chain node of a slab bucket. It mirrors the
// chainNode layout of the baseline tables (24 bytes: key, value, next).
// val and next are atomic because locked writers replace them under
// lock-free readers; key is written once, before the node is linked, and
// is atomic only so that slots and nodes read alike. A node is never
// reused: once unlinked, or left behind by a migration, it is frozen, and
// the collector frees it when no reader can reach it.
type node[V any] struct {
	key  atomic.Uint64
	val  core.Word[V]
	next atomic.Pointer[node[V]]
}

// pairSlot is one inline slot. Key 0 marks the slot free (user keys are in
// [ds.MinKey, ds.MaxKey], as in arraymap). The fields are atomics so
// lock-free readers race cleanly with locked writers.
type pairSlot[V any] struct {
	key atomic.Uint64
	val core.Word[V]
}

// bucket is one slab bucket, exactly one cache line. The OPTIK lock's
// version doubles as the validation word for the inline prefix: a search
// that matches an inline key re-checks the version to know it read the
// key/value pair atomically, and a feasible update's TryLockVersion proves
// its optimistic scan (free slot, chain position) is still valid.
type bucket[V any] struct {
	lock   core.Lock
	head   atomic.Pointer[node[V]] // sorted overflow chain
	inline [inlinePairs]pairSlot[V]
}

// Compile-time proof that a bucket fills exactly one cache line, in both
// instantiations: either expression overflows uint64 if a size drifts.
const (
	_ = uint64(core.CacheLineSize - unsafe.Sizeof(bucket[uint64]{}))
	_ = uint64(unsafe.Sizeof(bucket[uint64]{}) - core.CacheLineSize)
	_ = uint64(core.CacheLineSize - unsafe.Sizeof(bucket[*byte]{}))
	_ = uint64(unsafe.Sizeof(bucket[*byte]{}) - core.CacheLineSize)
)

// forwarded is the sentinel a migrated bucket's head points at, forever.
// Like the deleted-node locks of the OPTIK lists, the permanence is the
// point: any operation that meets it knows the bucket's contents live in
// the next slab, with no instant at which the bucket looks merely empty.
// One sentinel serves every instantiation: it is only ever compared by
// address, never read, and its value word stays zero.
var forwarded node[uint64]

// forwardedNode is the sentinel as a node of the caller's instantiation.
func forwardedNode[V any]() *node[V] {
	return (*node[V])(unsafe.Pointer(&forwarded))
}

// newBucketSlab allocates an n-bucket slab whose base is 64-byte aligned,
// turning the one-line-per-bucket layout into a checked guarantee instead
// of an allocator accident. It is not one today: since the allocation
// headers of Go 1.22, a pointer-bearing object between 512 bytes and 32
// KiB carries an 8-byte type header inside its allocation slot, so a
// plain make([]bucket, n) for 9–511 buckets comes back 8 bytes off a
// cache line and *every* bucket in the slab straddles two lines — the
// exact failure mode the slab layout exists to prevent.
//
// The classic fixes don't survive contact with the GC. A bucket is
// exactly one cache line, so all elements of a []bucket share the same
// address modulo 64 — over-allocating whole buckets can never produce an
// aligned sub-slice. A byte-granularity shift through unsafe would move
// bucket.head (a GC-visible pointer) out of the words the collector scans
// as pointers, silently hiding live overflow chains from the GC. The one
// shift the collector does respect is a type-level one: when the plain
// allocation comes back misaligned, the constructor builds (via reflect)
// a struct type whose leading byte-array pad places its [n]bucket field
// at an aligned address, and returns a slice into that field. The
// pointer map is exact — the pad is genuinely part of the type — so
// chain nodes stay visible, and the slice keeps the whole allocation
// alive. The pad sweep covers every possible 8-byte-granular offset; if
// some future allocator defeats it entirely, the plain slab is returned
// as a last resort and TestBucketIsOneCacheLine fails loudly rather than
// letting every operation quietly pay two misses.
func newBucketSlab[V any](n int) []bucket[V] {
	s := make([]bucket[V], n)
	if uintptr(unsafe.Pointer(&s[0]))%uintptr(core.CacheLineSize) == 0 {
		return s
	}
	if p := paddedBucketSlab[V](n); p != nil {
		return p
	}
	return s
}

// paddedBucketSlab is newBucketSlab's fallback: an n-bucket slab inside a
// reflect-built struct whose leading pad puts it on a cache line, or nil if
// no pad does. With a pointer value word every inline slot is a pointer
// too, and the struct's pointer map covers them as it covers head.
func paddedBucketSlab[V any](n int) []bucket[V] {
	arr := reflect.ArrayOf(n, reflect.TypeFor[bucket[V]]())
	for pad := 8; pad < int(core.CacheLineSize); pad += 8 {
		st := reflect.StructOf([]reflect.StructField{
			{Name: "Pad", Type: reflect.ArrayOf(pad, reflect.TypeOf(byte(0)))},
			{Name: "Buckets", Type: arr},
		})
		v := reflect.New(st)
		p := unsafe.Add(v.UnsafePointer(), st.Field(1).Offset)
		if uintptr(p)%uintptr(core.CacheLineSize) == 0 {
			return unsafe.Slice((*bucket[V])(p), n)
		}
	}
	return nil
}

// search is the one-line fast path (fixed-table flavor: a miss returns
// without validation, which is linearizable because a key can only change
// buckets through a delete→insert pair, i.e. through an absence instant).
// Hits validate the version: inline so the key/value pair is read
// atomically (a slot is reused by the next insert), chain as every
// optimistic read that returns must be validated (optikvalidate).
func (b *bucket[V]) search(key uint64) (V, bool) {
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
	for cur := b.head.Load(); cur != nil; cur = cur.next.Load() {
		k := cur.key.Load()
		if k > key {
			break
		}
		if k == key {
			// Validated chain hit, as in Resizable's search. A fixed table
			// never migrates or reuses a node, so an unvalidated hit would
			// read a frozen value the key held during the scan; the check
			// stays because optikvalidate requires it of every read an
			// optimistic section returns, at one load of the line.
			val := core.LoadWord(&cur.val)
			if b.lock.GetVersion().Same(vn) {
				return val, true
			}
			goto restart
		}
	}
	var zero V
	return zero, false
}

// insert adds key→val if absent. The optimistic scan finds a duplicate
// (return false, no locking), a free inline slot, or the sorted chain
// position; TryLockVersion validates all of it in one CAS.
func (b *bucket[V]) insert(key uint64, val V) bool {
	var bo backoff.Backoff
	for {
		vn := b.lock.GetVersion()
		free := -1
		for i := range b.inline {
			switch b.inline[i].key.Load() {
			case key:
				return false // infeasible: no locking at all
			case 0:
				if free < 0 {
					free = i
				}
			}
		}
		var pred *node[V]
		cur := b.head.Load()
		for cur != nil && cur.key.Load() < key {
			pred, cur = cur, cur.next.Load()
		}
		if cur != nil && cur.key.Load() == key {
			return false // infeasible: no locking at all
		}
		if !b.lock.TryLockVersion(vn) {
			bo.Wait()
			continue
		}
		b.put(key, val, free, pred, cur)
		b.lock.Unlock()
		return true
	}
}

// put writes a validated insertion: into inline slot free if one was
// observed, otherwise linked into the sorted chain between pred and cur.
// The caller holds the bucket lock with the scan's version validated, so
// the slot is still free and the chain position still current. A chain
// node is fresh from the heap, and its fields are stored before the
// linking store publishes it, so a reader that observes the link observes
// the fields.
func (b *bucket[V]) put(key uint64, val V, free int, pred, cur *node[V]) {
	if free >= 0 {
		core.StoreWord(&b.inline[free].val, val)
		b.inline[free].key.Store(key)
		return
	}
	n := new(node[V])
	n.key.Store(key)
	core.StoreWord(&n.val, val)
	n.next.Store(cur)
	if pred == nil {
		b.head.Store(n)
	} else {
		pred.next.Store(n)
	}
}

// unlinkNode splices chain node cur, preceded by pred (nil: cur is the
// head), out of b. The caller holds the bucket lock and has read cur's
// value. cur keeps its key, value and next pointer, so a stale walk that
// reaches it still moves to larger keys and ends.
func (b *bucket[V]) unlinkNode(pred, cur *node[V]) {
	if pred == nil {
		b.head.Store(cur.next.Load())
	} else {
		pred.next.Store(cur.next.Load())
	}
}

// del removes key, returning its value, if present. A miss returns without
// locking (fixed-table flavor, same argument as search).
func (b *bucket[V]) del(key uint64) (V, bool) {
	var bo backoff.Backoff
	for {
		vn := b.lock.GetVersion()
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
			s := &b.inline[slot]
			val := core.LoadWord(&s.val)
			s.key.Store(0)
			core.ClearWord(&s.val)
			b.lock.Unlock()
			return val, true
		}
		var pred *node[V]
		cur := b.head.Load()
		for cur != nil && cur.key.Load() < key {
			pred, cur = cur, cur.next.Load()
		}
		if cur == nil || cur.key.Load() != key {
			var zero V
			return zero, false // infeasible: no locking at all
		}
		if !b.lock.TryLockVersion(vn) {
			bo.Wait()
			continue
		}
		val := core.LoadWord(&cur.val)
		b.unlinkNode(pred, cur)
		b.lock.Unlock()
		return val, true
	}
}

// size counts the bucket's elements (racy, for Len).
func (b *bucket[V]) size() int {
	n := 0
	for i := range b.inline {
		if b.inline[i].key.Load() != 0 {
			n++
		}
	}
	for cur := b.head.Load(); cur != nil && cur != forwardedNode[V](); cur = cur.next.Load() {
		n++
	}
	return n
}

// Slab is OptikGL rebuilt on the contiguous bucket slab: the same
// per-bucket OPTIK locking discipline (searches and infeasible updates
// never lock; feasible updates validate-and-lock in one CAS) with the
// cache-line bucket layout, so the common path costs one cache miss
// instead of OptikGL's two and bucket locks never false-share.
type Slab[V any] struct {
	buckets []bucket[V]
}

var _ ds.Set = (*Slab[uint64])(nil)

// NewSlab returns a fixed-capacity slab table with nbuckets buckets.
func NewSlab(nbuckets int) *Slab[uint64] {
	if nbuckets <= 0 {
		panic("hashmap: nbuckets must be positive")
	}
	return &Slab[uint64]{buckets: newBucketSlab[uint64](nbuckets)}
}

func (t *Slab[V]) bucket(key uint64) *bucket[V] {
	return &t.buckets[bucketIndex(key, len(t.buckets))]
}

// Search returns the value stored under key, if present, without locking.
func (t *Slab[V]) Search(key uint64) (V, bool) {
	ds.CheckKey(key)
	return t.bucket(key).search(key)
}

// Insert adds key→val if absent.
func (t *Slab[V]) Insert(key uint64, val V) bool {
	ds.CheckKey(key)
	return t.bucket(key).insert(key, val)
}

// Delete removes key, returning its value, if present.
func (t *Slab[V]) Delete(key uint64) (V, bool) {
	ds.CheckKey(key)
	return t.bucket(key).del(key)
}

// Len sums the bucket sizes (not linearizable).
func (t *Slab[V]) Len() int {
	n := 0
	for i := range t.buckets {
		n += t.buckets[i].size()
	}
	return n
}
