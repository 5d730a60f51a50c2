package hashmap

import (
	"math/bits"
	"sync/atomic"
	"unsafe"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/internal/backoff"
	"github.com/optik-go/optik/internal/core"
)

// Resizable is a hash table on the cache-line bucket slab that resizes in
// both directions under load — doubling past maxLoad, halving below the
// shrink threshold — following the paper's discipline end to end: reads
// stay lock-free and optimistic across any resize, and every write
// (including the migration of a bucket) is a per-bucket OPTIK critical
// section.
//
// The design:
//
//   - The table is a chain of slabs (rtable). Normally the chain is one
//     slab long and operations are exactly the Slab fast path plus one
//     pointer load.
//   - A striped, cache-line-padded size counter (core.Striped, in its
//     packed AddOp form: net element count in the low half, a monotone
//     operation count in the high half of the same atomic add) tracks the
//     element count. When the load factor passes maxLoad, the deepest
//     slab links an empty slab of twice the size as its next; when the
//     count falls below len(buckets)/shrinkLoad (and the slab is above
//     the floor, the table's initial bucket count), it links one of half
//     the size instead. The op half is the maintenance scheduler's
//     activity signal (internal/maint): unlike the net sum, it advances
//     under perfectly balanced traffic.
//   - Migration is incremental and cooperative: each update claims work
//     from the old slab via an atomic cursor (up to migrateQuantum claims
//     per update), moves the claimed entries into the new slab, and
//     forwards the source buckets. A migrated bucket's head points at the
//     forwarding sentinel and stays that way forever; operations that
//     encounter it simply hop to the next slab.
//   - Growing, a claim is one bucket, whose entries split across two new
//     buckets. Shrinking, a claim is a bucket *pair*: old buckets i and
//     i+n/2 are exactly the two whose contents hash to new bucket i, so
//     the claimant locks both (a critical section under both OPTIK
//     locks), merges the pair's inline slots and chains into that single
//     target bucket, and forwards both. Concurrent feasible updates fail
//     TryLockVersion against either held lock and retry until they see
//     the sentinel; optimistic readers that raced the merge fail version
//     validation and re-run — reads cross a shrink exactly as they cross
//     a grow, without acquiring anything.
//   - When the last claim completes, the root pointer advances and the
//     old slab, with its overflow-chain nodes, is garbage: the collector
//     frees it once no stale reader still holds a pointer into it. No
//     node is ever reused, so a node's key never changes once it is
//     linked and a node a stale reader reaches stays readable.
//
// Grow and shrink thresholds are deliberately far apart (load > 2 grows,
// load < 1/4 shrinks, and the post-resize load lands at 1 and just under
// 1/2 respectively), so churn at either boundary cannot flap the table
// between sizes; the floor keeps a delete storm from shrinking a table
// below its provisioned size. Migration advances only on the backs of
// updates; Quiesce drives it (and any threshold-pending resize) home when
// traffic stops, and a table handed to a maintenance scheduler
// (internal/maint — the table implements its Maintainer contract) is
// quiesced by it once traffic idles, so an abandoned oversized table hands
// its memory back with no caller involvement.
//
// Unlike the fixed tables, every path of Search and Delete must
// re-validate the bucket version — the miss paths because migration moves
// a key from the old slab to the new one without an instant of absence,
// and the chain-hit path too: a node matched in a bucket that migrated
// under the scan is the frozen copy the key has left, whose value the new
// slab may already have replaced. The migration is a critical section on
// the bucket the node came from, so the validation catches it; on a
// quiescent bucket it is one extra load of the line the scan already
// owns.
//
// The size counter also changes Len from an O(n) traversal to an O(shards)
// sum, independent of the element count.
type Resizable[V comparable] struct {
	root  atomic.Pointer[rtable[V]]
	count *core.Striped
	// floor is the initial bucket count; shrinking never goes below it.
	floor int
	// resizes counts linked resize slabs, grows and shrinks alike (racy
	// reads via Resizes; for monitoring and the flapping tests).
	resizes atomic.Int64
}

var _ ds.Set = (*Resizable[uint64])(nil)

// rtable is one slab in the resize chain. mask is len(buckets)-1 (bucket
// counts are powers of two); cursor hands out buckets to migrate and
// migrated counts the ones fully forwarded.
type rtable[V any] struct {
	buckets  []bucket[V]
	mask     uint64
	next     atomic.Pointer[rtable[V]]
	cursor   atomic.Int64
	migrated atomic.Int64
}

// maxLoad is the load factor (elements per bucket) beyond which the table
// doubles; 2 keeps the expected bucket population within the inline
// prefix, so the one-cache-line fast path survives growth.
const maxLoad = 2

// shrinkLoad is the hysteresis divisor of the halving path: the table
// shrinks only when fewer than len(buckets)/shrinkLoad elements remain.
// With maxLoad = 2 the thresholds sit a factor of 8 apart, and a resize
// lands the load mid-band (1 after a grow, just under 1/2 after a
// shrink), so no workload oscillating around either boundary can flap
// the table back and forth.
const shrinkLoad = 4

// migrateQuantum bounds the helping work one update performs while a
// resize is in flight: claim and move up to this many old buckets.
const migrateQuantum = 2

// growthCheckMask amortizes load-factor checks: the O(shards) Net scan
// runs when an update's counter cell crosses a multiple of 64 operations
// (or an insert spills to an overflow chain — the bucket is visibly
// overfull).
const growthCheckMask = 64 - 1

// testHookChainHit, when non-nil, runs after Search's chain scan matches
// its key and before it reads the value — the window in which the bucket
// can migrate and the key be overwritten in the new slab. The white-box
// validation test uses it to stage that interleaving deterministically.
var testHookChainHit func()

// testHookWriteHit, when non-nil, runs in Write after the parse found its
// key and before the value Keep judges is loaded — the window in which a
// delete can clear the slot or unlink the node. The white-box validation
// tests stage that interleaving through it.
var testHookWriteHit func()

// NewResizable returns a growing table of uint64 values with at least
// nbuckets buckets (rounded up to a power of two).
func NewResizable(nbuckets int) *Resizable[uint64] { return NewResizableOf[uint64](nbuckets) }

// NewResizableOf is NewResizable for any value word V: uint64, or a
// pointer the table then holds for the garbage collector (the string
// layer's pairs). Any other V panics.
func NewResizableOf[V comparable](nbuckets int) *Resizable[V] {
	core.CheckWord[V]()
	if nbuckets <= 0 {
		panic("hashmap: nbuckets must be positive")
	}
	n := 1
	for n < nbuckets {
		n <<= 1
	}
	r := &Resizable[V]{
		count: core.NewStriped(0),
		floor: n,
	}
	r.root.Store(newRTable[V](n))
	return r
}

func newRTable[V any](nbuckets int) *rtable[V] {
	return &rtable[V]{buckets: newBucketSlab[V](nbuckets), mask: uint64(nbuckets - 1)}
}

// index spreads keys with a Fibonacci multiplicative hash. The fixed
// tables use key mod nbuckets, mirroring the paper; a power-of-two mask
// needs the multiply so dense key ranges don't collapse onto low bits.
// The bucket is the product's top log2(n) bits, bit-reversed: the top
// bits are where the multiply spreads a dense key range evenly at every
// table size, and the reversal puts the next bit a doubling consumes at
// the index's top, so a grow still splits bucket i into i and i+n and a
// shrink merges i and i+n/2 (see migrateBucket, migratePair and Sweep).
func (t *rtable[V]) index(key uint64) int {
	return int(bits.Reverse64(key*0x9E3779B97F4A7C15) & t.mask)
}

// Search returns the value stored under key, if present. It never locks:
// forwarded buckets are followed into the next slab, and every outcome is
// version-validated — inline hits for pair atomicity, misses against a
// migration moving the key under the scan, and chain hits against a
// migration between the key load and the value load, which leaves the
// matched node a frozen copy whose value the new slab may have replaced.
// The chain walk itself needs no guard: a node's key never changes once
// it is linked and every next pointer leads to a larger key, so any walk,
// stale or not, ends (docs/INVARIANTS.md, "No node is reused").
func (r *Resizable[V]) Search(key uint64) (V, bool) {
	ds.CheckKey(key)
	t := r.root.Load()
	for {
		b := &t.buckets[t.index(key)]
	restart:
		vn := b.lock.GetVersionWait()
		head := b.head.Load()
		if head == forwardedNode[V]() {
			t = t.next.Load()
			continue
		}
		for i := range b.inline {
			if b.inline[i].key.Load() == key {
				val := core.LoadWord(&b.inline[i].val)
				if b.lock.GetVersion().Same(vn) {
					return val, true
				}
				goto restart
			}
		}
		for cur := head; cur != nil; cur = cur.next.Load() {
			k := cur.key.Load()
			if k > key {
				break
			}
			if k == key {
				if h := testHookChainHit; h != nil {
					h()
				}
				val := core.LoadWord(&cur.val)
				if b.lock.GetVersion().Same(vn) {
					return val, true
				}
				goto restart
			}
		}
		if b.lock.GetVersion().Same(vn) {
			var zero V
			return zero, false
		}
		goto restart
	}
}

// Insert adds key→val if absent. A duplicate returns false without any
// synchronization; a feasible insert validates its scan with one
// TryLockVersion CAS, then bumps the size counter and, when thresholds
// say so, starts or helps a resize. Migration help is part of every
// update's body: each one claims its quantum. It is the write body told
// not to touch a present key.
func (r *Resizable[V]) Insert(key uint64, val V) bool {
	_, _, present := r.write(key, ds.Put[V]{Val: val}, false)
	return !present
}

// Upsert inserts key→val when key is absent and replaces the stored value
// when it is present, returning the previous value and whether a
// replacement happened: Write with a value already built.
func (r *Resizable[V]) Upsert(key uint64, val V) (V, bool) {
	old, _, replaced := r.Write(key, ds.Put[V]{Val: val})
	return old, replaced
}

// Write inserts key when absent and replaces the stored value when
// present, returning the previous value, the value key maps to on return,
// and whether key was present. The replacement is a per-bucket OPTIK
// critical section like any other feasible update — the scan finds the
// slot or chain node optimistically, TryLockVersion validates it, and the
// store commits under the lock, so concurrent readers either validate
// against the old value or restart into the new one. An in-place
// replacement moves no thresholds (the element count is unchanged) but
// still counts as an operation for the maintenance scheduler's activity
// signal; a kept write, which changes nothing, does not.
//
// A present value is first offered to p.Keep, once validated as Search
// validates a hit: read between two equal, unlocked bucket versions. An
// inline slot that a delete is clearing, or a chain node a delete
// unlinked or a migration froze, fails that check and the parse restarts,
// so Keep only ever judges a value the key held.
// A kept value is the infeasible update of the paper: no lock, no store,
// no version bump, and val is old. Otherwise p.Build, if set, builds val
// before the lock is tried.
func (r *Resizable[V]) Write(key uint64, p ds.Put[V]) (old, val V, replaced bool) {
	return r.write(key, p, true)
}

// write is the table's one write body, shared by Insert (upsert false: a
// present key returns at once, unlocked and unvalidated, as the paper's
// infeasible insert) and Write. It returns (old value, value mapped,
// whether key was present).
func (r *Resizable[V]) write(key uint64, p ds.Put[V], upsert bool) (old, val V, present bool) {
	ds.CheckKey(key)
	r.help()
	t := r.root.Load()
	val = p.Val
	built := p.Build == nil
	var bo backoff.Backoff
	for {
		b := &t.buckets[t.index(key)]
		vn := b.lock.GetVersion()
		head := b.head.Load()
		if head == forwardedNode[V]() {
			t = t.next.Load()
			continue
		}
		var w *core.Word[V] // key's value word, when key is present
		free := -1
		for i := range b.inline {
			switch b.inline[i].key.Load() {
			case key:
				w = &b.inline[i].val
			case 0:
				if free < 0 {
					free = i
				}
			}
		}
		var pred, cur *node[V]
		if w == nil {
			cur = head
			for cur != nil && cur.key.Load() < key {
				pred, cur = cur, cur.next.Load()
			}
			if cur != nil && cur.key.Load() == key {
				w = &cur.val
			}
		}
		if w != nil && !upsert {
			return old, val, true // infeasible: no locking at all
		}
		if w != nil && p.Keep != nil {
			if vn.IsLocked() {
				bo.Wait()
				continue
			}
			if h := testHookWriteHit; h != nil {
				h()
			}
			old = core.LoadWord(w)
			if !b.lock.GetVersion().Same(vn) {
				continue
			}
			if p.Keep(old, p) {
				return old, old, true // infeasible: no locking at all
			}
		}
		if !built {
			val, built = p.Build(p), true
		}
		if !b.lock.TryLockVersion(vn) {
			bo.Wait()
			continue
		}
		if w != nil {
			// Validated: the slot or node still holds key, so the value is its.
			old = core.LoadWord(w)
			core.StoreWord(w, val)
			b.lock.Unlock()
			r.noteUpdate(key)
			return old, val, true
		}
		b.put(key, val, free, pred, cur)
		b.lock.Unlock()
		if c := r.count.AddOp(key, 1); free < 0 || c&growthCheckMask == 0 {
			r.maybeGrow()
		}
		var zero V
		return zero, val, false
	}
}

// Delete removes key, returning its value, if present. A validated miss
// returns without locking; a hit validates-and-locks in one CAS. An
// inline slot's value word is cleared inside the critical section; an
// unlinked chain node keeps its word, frozen, until the collector frees
// the node, so a stale reader that still reaches it reads a value the key
// held while the reader ran.
func (r *Resizable[V]) Delete(key uint64) (V, bool) {
	ds.CheckKey(key)
	var zero V
	return r.delete(key, false, zero)
}

// DeleteIfValue removes key only while it still maps to exactly val,
// reporting whether it did. The value check runs while the bucket's OPTIK
// lock is held; a mismatch releases it with Revert (no version bump, so
// concurrent readers' snapshots stay valid — nothing changed). This is the
// conditional delete a layer above needs to retire an entry it sampled
// without a lock: for a pointer word the check is identity, and a layer
// that never stores the same pointer twice (store.Strings builds a fresh
// pair for every write that stores) knows a passing check means the entry
// is still the one it judged expired or idle — a successor that replaced
// it, or re-inserted the key after a delete, holds another pointer.
func (r *Resizable[V]) DeleteIfValue(key uint64, val V) bool {
	ds.CheckKey(key)
	_, ok := r.delete(key, true, val)
	return ok
}

// delete is the body of Delete and, with match set, of DeleteIfValue: the
// hit is removed only if its value is want.
func (r *Resizable[V]) delete(key uint64, match bool, want V) (V, bool) {
	r.help()
	t := r.root.Load()
	var bo backoff.Backoff
	var zero V
	for {
		b := &t.buckets[t.index(key)]
		vn := b.lock.GetVersionWait()
		head := b.head.Load()
		if head == forwardedNode[V]() {
			t = t.next.Load()
			continue
		}
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
			if match && val != want {
				b.lock.Revert()
				return zero, false
			}
			s.key.Store(0)
			core.ClearWord(&s.val)
			b.lock.Unlock()
			r.noteDelete(key)
			return val, true
		}
		var pred *node[V]
		cur := head
		for cur != nil && cur.key.Load() < key {
			pred, cur = cur, cur.next.Load()
		}
		if cur == nil || cur.key.Load() != key {
			if b.lock.GetVersion().Same(vn) {
				return zero, false
			}
			continue
		}
		if !b.lock.TryLockVersion(vn) {
			bo.Wait()
			continue
		}
		val := core.LoadWord(&cur.val)
		if match && val != want {
			b.lock.Revert()
			return zero, false
		}
		b.unlinkNode(pred, cur)
		b.lock.Unlock()
		r.noteDelete(key)
		return val, true
	}
}

// ReplaceIfValue swaps key's value from exactly old to new, reporting
// whether it did — DeleteIfValue's sibling, under the same lock and with
// the same identity argument: store.Strings re-arms or clears a TTL by
// building a new pair and swapping it in only over the pair it read. A
// mismatch or a missing key changes nothing.
func (r *Resizable[V]) ReplaceIfValue(key uint64, old, new V) bool {
	ds.CheckKey(key)
	t := r.root.Load()
	var bo backoff.Backoff
	for {
		b := &t.buckets[t.index(key)]
		vn := b.lock.GetVersionWait()
		head := b.head.Load()
		if head == forwardedNode[V]() {
			t = t.next.Load()
			continue
		}
		var w *core.Word[V] // key's value word, when key is present
		for i := range b.inline {
			if b.inline[i].key.Load() == key {
				w = &b.inline[i].val
				break
			}
		}
		if w == nil {
			cur := head
			for cur != nil && cur.key.Load() < key {
				cur = cur.next.Load()
			}
			if cur == nil || cur.key.Load() != key {
				if b.lock.GetVersion().Same(vn) {
					return false
				}
				continue
			}
			w = &cur.val
		}
		if !b.lock.TryLockVersion(vn) {
			bo.Wait()
			continue
		}
		if core.LoadWord(w) != old {
			b.lock.Revert()
			return false
		}
		core.StoreWord(w, new)
		b.lock.Unlock()
		r.noteUpdate(key)
		return true
	}
}

// noteDelete records a successful removal on the striped counter and, on
// the same amortization schedule as the growth check, considers shrinking.
// The check fires when the cell's op count crosses a multiple of 64 —
// deterministic progress even when inserts and deletes balance and the net
// cell value stands still.
func (r *Resizable[V]) noteDelete(key uint64) {
	if c := r.count.AddOp(key, -1); c&growthCheckMask == 0 {
		r.maybeShrink()
	}
}

// noteUpdate records an in-place value replacement: one operation with no
// net element effect. It exists for the maintenance scheduler's activity
// signal — no threshold can have moved, so there is nothing to check.
func (r *Resizable[V]) noteUpdate(key uint64) {
	r.count.AddOp(key, 0)
}

// Len returns the element count from the striped counter: O(shards),
// independent of the table size. Exact when quiescent, approximate under
// concurrent updates (like every Len in the library). The net is clamped
// at zero: a reader can catch a delete's decrement before the matching
// insert's increment and see a transiently negative total, which must not
// leak out as a negative (or, through int truncation, enormous) length.
func (r *Resizable[V]) Len() int {
	if n := r.count.Net(); n > 0 {
		return int(n)
	}
	return 0
}

// Buckets returns the current root slab's bucket count (racy; for tests
// and monitoring).
func (r *Resizable[V]) Buckets() int { return len(r.root.Load().buckets) }

// Resizes returns how many resizes (grows and shrinks alike) the table has
// started over its lifetime (racy; for tests and monitoring — the flapping
// tests assert this stays bounded under threshold oscillation).
func (r *Resizable[V]) Resizes() int { return int(r.resizes.Load()) }

// ActivitySample implements maint.Maintainer: a hash of the root slab pointer,
// the migration cursor and the monotone op count, so any update — an
// insert, a delete, a value replacement, or migration progress — changes
// the sample. The old per-field comparison compared the striped element
// *sum*, which perfectly balanced traffic (equal inserts and deletes, the
// steady state of any full cache) leaves unchanged; the op count advances
// on every successful update, so "unchanged since last sample" genuinely
// means untouched. Hash-combining can in principle collide two distinct
// states into a false idle verdict — safe per the Maintainer contract
// (quiescing is merely unnecessary work) and requiring an exact 64-bit
// collision between consecutive samples.
func (r *Resizable[V]) ActivitySample() uint64 {
	t := r.root.Load()
	h := uint64(uintptr(unsafe.Pointer(t)))
	h = (h ^ uint64(t.cursor.Load())) * 0x9E3779B97F4A7C15
	h = (h ^ uint64(r.count.Ops())) * 0x9E3779B97F4A7C15
	return h
}

// MaintainIdle implements maint.Maintainer: the full maintenance pass for a
// table nothing touched since the last sample — quiesce any migration
// home, cancellably.
func (r *Resizable[V]) MaintainIdle(cancel <-chan struct{}) { r.quiesce(cancel) }

// MaintainBusy implements maint.Maintainer: a busy table drives its own resizes
// on the backs of its updates, so the scheduler only lends a bounded hand
// when a migration is actually in flight.
func (r *Resizable[V]) MaintainBusy() { r.help() }

// help migrates up to migrateQuantum claims of the root slab if a resize
// is in flight. When no resize is running it costs one pointer load.
// A claim is one bucket when growing and a bucket pair when shrinking
// (claims(t, next) counts them).
func (r *Resizable[V]) help() {
	t := r.root.Load()
	next := t.next.Load()
	if next == nil {
		return
	}
	total := claims(t, next)
	shrink := len(next.buckets) < len(t.buckets)
	for q := 0; q < migrateQuantum; q++ {
		idx := t.cursor.Add(1) - 1
		if idx >= total {
			return
		}
		if shrink {
			t.migratePair(int(idx), next)
		} else {
			t.migrateBucket(int(idx), next)
		}
		if t.migrated.Add(1) == total {
			// Every bucket is forwarded: retire the old slab. Exactly one
			// helper observes the final count, so the CAS is unambiguous.
			r.root.CompareAndSwap(t, next)
			return
		}
	}
}

// claims returns how many cursor claims migrating t into next takes: one
// per bucket growing, one per bucket pair shrinking.
func claims[V any](t, next *rtable[V]) int64 {
	n := int64(len(t.buckets))
	if len(next.buckets) < len(t.buckets) {
		return n / 2
	}
	return n
}

// maybeGrow links a doubled slab behind the deepest one when the load
// factor passes maxLoad. The CAS makes concurrent growers idempotent.
func (r *Resizable[V]) maybeGrow() {
	t := r.root.Load()
	for n := t.next.Load(); n != nil; n = t.next.Load() {
		t = n
	}
	if r.count.Net() <= int64(len(t.buckets))*maxLoad {
		return
	}
	if t.next.CompareAndSwap(nil, newRTable[V](len(t.buckets)*2)) {
		r.resizes.Add(1)
	}
}

// maybeShrink links a halved slab behind the deepest one when the element
// count drops below len(buckets)/shrinkLoad, never below the floor. The
// CAS makes concurrent shrinkers (and a racing grower) link exactly one
// successor.
func (r *Resizable[V]) maybeShrink() {
	t := r.root.Load()
	for n := t.next.Load(); n != nil; n = t.next.Load() {
		t = n
	}
	n := len(t.buckets)
	if n <= r.floor || r.count.Net()*shrinkLoad >= int64(n) {
		return
	}
	if t.next.CompareAndSwap(nil, newRTable[V](n/2)) {
		r.resizes.Add(1)
	}
}

// Quiesce drives any in-flight migration to completion, then starts (and
// completes) whatever resize the current load calls for, until the table
// is a single slab sized within the hysteresis band. Migration otherwise
// advances only on the backs of updates, so a table left oversized by a
// delete storm keeps its memory until the next write burst; operators and
// the churn workload call
// Quiesce between traffic phases (or hand the table to a
// maint.Scheduler, which does the same through MaintainIdle). Safe to
// call concurrently with operations, which proceed exactly as they do
// against update-driven migration.
//
// When every remaining claim is already handed out to concurrent updates
// that have not finished them, there is nothing left to help with; the
// loop then backs off (exponentially, yielding to the scheduler first)
// instead of spinning on the root pointer, so a scheduler quiescing under
// sustained write traffic cannot burn a core re-reading state only those
// writers can change.
func (r *Resizable[V]) Quiesce() { r.MaintainIdle(nil) }

// quiesce is Quiesce with an optional cancel channel, so a scheduler's
// maintenance never outlives its Stop even when traffic keeps the table out
// of band indefinitely.
func (r *Resizable[V]) quiesce(cancel <-chan struct{}) {
	var bo backoff.Backoff
	var last *rtable[V]
	for {
		if cancel != nil {
			select {
			case <-cancel:
				return
			default:
			}
		}
		t := r.root.Load()
		if t != last {
			last = t
			bo.Reset()
		}
		if next := t.next.Load(); next != nil {
			if t.cursor.Load() < claims(t, next) {
				r.help()
				bo.Reset()
			} else {
				bo.Wait()
			}
			continue
		}
		// Single slab: let the triggers decide — each owns its threshold
		// and declines inside the band.
		r.maybeGrow()
		r.maybeShrink()
		if r.root.Load() == t && t.next.Load() == nil {
			// Both triggers declined: the table is in band. Done.
			return
		}
	}
}

// migrateBucket moves bucket i into next and forwards it. The copy is an
// OPTIK critical section on the bucket's lock: concurrent feasible updates
// fail TryLockVersion and retry until they observe the sentinel, and the
// version bump on unlock sends optimistic readers back around.
func (t *rtable[V]) migrateBucket(i int, next *rtable[V]) {
	b := &t.buckets[i]
	b.lock.Lock()
	b.moveAll(next)
	b.head.Store(forwardedNode[V]())
	b.lock.Unlock()
}

// migratePair is migrateBucket's shrinking counterpart: old buckets i and
// i+n/2 are exactly the two whose keys hash to new bucket i in the
// half-size successor, so the merge of their chains is one critical
// section under both OPTIK locks. Holding both while copying gives the
// same guarantee the single-bucket copy gives growing — no instant at
// which part of the pair's contents is absent from every slab — and the
// two forwarding stores then retire the pair together. Lock order is safe
// without a global discipline: the cursor hands each pair to exactly one
// claimant, ordinary updates hold one bucket lock at a time and never
// block acquiring another while holding it, and migrations only acquire
// down the slab chain (sources before destinations), so no cycle can
// form. Readers, as ever, acquire nothing: a racing scan either fails
// version validation against the bumped source versions or meets the
// sentinel and hops.
func (t *rtable[V]) migratePair(i int, next *rtable[V]) {
	lo, hi := &t.buckets[i], &t.buckets[i+len(t.buckets)/2]
	lo.lock.Lock()
	hi.lock.Lock()
	lo.moveAll(next)
	hi.moveAll(next)
	lo.head.Store(forwardedNode[V]())
	hi.head.Store(forwardedNode[V]())
	hi.lock.Unlock()
	lo.lock.Unlock()
}

// moveAll copies every live entry of b (inline prefix and overflow chain)
// into next. The caller holds b's lock; the old slots and node contents
// are left untouched, so readers that entered before forwarding finish
// against a consistent (if stale) snapshot, and any reader that would
// return what it read fails its version validation against this critical
// section and restarts.
func (b *bucket[V]) moveAll(next *rtable[V]) {
	for s := range b.inline {
		if k := b.inline[s].key.Load(); k != 0 {
			insertMoved(next, k, core.LoadWord(&b.inline[s].val))
		}
	}
	for cur := b.head.Load(); cur != nil; cur = cur.next.Load() {
		insertMoved(next, cur.key.Load(), core.LoadWord(&cur.val))
	}
}

// insertMoved inserts a migrated entry into t, following forwarded buckets
// into deeper slabs (a cascaded resize may already have forwarded the
// destination). No duplicate check: the key's source bucket is locked by
// the caller, so the key cannot exist anywhere ahead. No counting either —
// migration moves entries, it does not create them.
func insertMoved[V any](t *rtable[V], key uint64, val V) {
	var bo backoff.Backoff
	for {
		b := &t.buckets[t.index(key)]
		vn := b.lock.GetVersion()
		head := b.head.Load()
		if head == forwardedNode[V]() {
			t = t.next.Load()
			continue
		}
		free := -1
		for i := range b.inline {
			if b.inline[i].key.Load() == 0 {
				free = i
				break
			}
		}
		var pred *node[V]
		cur := head
		for cur != nil && cur.key.Load() < key {
			pred, cur = cur, cur.next.Load()
		}
		if !b.lock.TryLockVersion(vn) {
			bo.Wait()
			continue
		}
		b.put(key, val, free, pred, cur)
		b.lock.Unlock()
		return
	}
}
