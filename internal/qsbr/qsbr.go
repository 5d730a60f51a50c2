// Package qsbr implements quiescent-state-based memory reclamation, the Go
// analog of ssmem, the allocator the paper's data structures use ("a simple
// memory allocator with quiescent-based memory reclamation", §3.3).
//
// The paper's point is that OPTIK *decouples* concurrency control from
// memory reclamation: any scheme (hazard pointers, RCU, quiescent states)
// works underneath. In Go the garbage collector already guarantees the one
// property the data structures rely on — an unlinked node stays valid while
// any thread still references it — so most structures in ds/ allocate
// GC-managed nodes and simply drop them. This package provides the other
// half of ssmem's job, the half the GC does not do: free-list *reuse*. It
// implements per-thread retire lists, a global epoch advanced by
// quiescent-state announcements, and free-list-first allocation of
// reclaimed objects.
//
// It is no longer a standalone substitute kept only for reproducibility:
// ds/hashmap.Resizable allocates its overflow-chain nodes from a Domain's
// free lists and retires them on delete and on migration, borrowing
// handles through the Pool type below (see ds/hashmap/reclaim.go for how
// the structure's OPTIK version validation, rather than reader
// announcements, makes the reuse safe — the paper's decoupling claim,
// exercised for real).
//
// Protocol: each participating thread owns a Thread handle. Between
// operations the thread calls Quiescent(). Retire(obj) buffers obj on the
// thread's retire list stamped with the current epoch; once every registered
// thread has announced a quiescent state after that epoch, the object is
// moved to the free list and handed out again by Alloc. Threads whose
// goroutines are short-lived or anonymous borrow pre-registered handles
// from a Pool instead; parked handles count as quiescent, so an idle slot
// never stalls the epoch.
package qsbr

import (
	"sync"
	"sync/atomic"
)

// Domain groups the threads that may access a set of retired objects.
// A Domain is safe for concurrent use; Thread handles are not (one per
// goroutine, like the paper's per-thread ssmem allocators).
type Domain struct {
	epoch atomic.Uint64

	mu      sync.Mutex
	threads []*Thread
	// orphans holds retirements of unregistered threads. Once the minimum
	// announced epoch passes an orphan's epoch no thread can reference it,
	// and dropping the last pointer hands it to the Go garbage collector
	// (the domain has no owner to push it to a free list for).
	orphans        []retiredObject
	orphansDropped uint64
	// orphanCount mirrors len(orphans) so Quiescent can skip taking the
	// mutex on the (hot) no-orphans path.
	orphanCount atomic.Int64
}

// NewDomain returns an empty reclamation domain. The global epoch starts
// at 1 so that a zero announcement always reads as "not yet quiescent".
func NewDomain() *Domain {
	d := &Domain{}
	d.epoch.Store(1)
	return d
}

// Epoch returns the current global epoch (for tests and stats).
func (d *Domain) Epoch() uint64 { return d.epoch.Load() }

// Register creates a Thread handle bound to this domain. The handle must be
// used by a single goroutine.
func (d *Domain) Register() *Thread {
	t := &Thread{domain: d}
	t.announced.Store(d.epoch.Load())
	d.mu.Lock()
	d.threads = append(d.threads, t)
	d.mu.Unlock()
	return t
}

// Unregister removes t from the domain. Its pending retirements become
// domain orphans and are dropped (handed to the garbage collector) once the
// minimum announced epoch passes them. Using t after Unregister is a bug.
func (d *Domain) Unregister(t *Thread) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, th := range d.threads {
		if th == t {
			d.threads = append(d.threads[:i], d.threads[i+1:]...)
			break
		}
	}
	d.orphans = append(d.orphans, t.retired...)
	d.orphanCount.Store(int64(len(d.orphans)))
	t.retired = nil
	d.pruneOrphansLocked(d.minAnnouncedLocked())
}

// OrphansPending returns the number of orphaned retirements not yet dropped.
func (d *Domain) OrphansPending() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.orphans)
}

// OrphansDropped returns the number of orphans released to the GC so far.
func (d *Domain) OrphansDropped() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.orphansDropped
}

// Stats aggregates the lifetime retire/reclaim/reuse counts across every
// thread currently registered in the domain (racy snapshot; for monitoring
// and the allocation-regression tests).
func (d *Domain) Stats() (retired, reclaimed, reused uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, t := range d.threads {
		retired += t.retireCount.Load()
		reclaimed += t.reclaimCount.Load()
		reused += t.reuseCount.Load()
	}
	return retired, reclaimed, reused
}

// minAnnounced returns the smallest epoch announced by any registered
// thread, or the current epoch when no threads are registered, and prunes
// any orphans that became unreachable.
func (d *Domain) minAnnounced() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	min := d.minAnnouncedLocked()
	d.pruneOrphansLocked(min)
	return min
}

func (d *Domain) minAnnouncedLocked() uint64 {
	// Start above the current epoch: with no registered threads nothing can
	// hold a reference, so every retirement is immediately safe.
	min := d.epoch.Load() + 1
	for _, t := range d.threads {
		if a := t.announced.Load(); a < min {
			min = a
		}
	}
	return min
}

func (d *Domain) pruneOrphansLocked(safe uint64) {
	if len(d.orphans) == 0 {
		return
	}
	kept := d.orphans[:0]
	for _, r := range d.orphans {
		if r.epoch < safe {
			d.orphansDropped++
		} else {
			kept = append(kept, r)
		}
	}
	for i := len(kept); i < len(d.orphans); i++ {
		d.orphans[i] = retiredObject{}
	}
	d.orphans = kept
	d.orphanCount.Store(int64(len(kept)))
}

// retiredObject pairs a retired pointer with the epoch at which it became
// unreachable from the structure.
type retiredObject struct {
	obj   any
	epoch uint64
}

// Thread is a per-goroutine participant: it buffers retirements, announces
// quiescent states, and reuses reclaimed objects through a local free list.
type Thread struct {
	noCopy    noCopy
	domain    *Domain
	announced atomic.Uint64
	// slot is non-nil for pool-managed handles (see pool.go); it lets
	// Release park the handle without searching the pool.
	slot *poolSlot
	// sweepAt throttles Release's sweep attempts: when an older
	// announcement blocks the whole retired list, re-attempting on every
	// release would pay the domain scan each time for nothing, so the
	// next attempt waits until the list has grown by another batch.
	sweepAt int

	retired []retiredObject
	free    []any

	// Stats (monotonic; atomic so Domain.Stats can aggregate them while the
	// owner keeps mutating).
	retireCount  atomic.Uint64
	reclaimCount atomic.Uint64
	reuseCount   atomic.Uint64
}

// Alloc returns a reclaimed object from the free list, or nil when the free
// list is empty (the caller then allocates normally). This mirrors ssmem's
// free-list-first allocation.
func (t *Thread) Alloc() any {
	if n := len(t.free); n > 0 {
		obj := t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
		t.reuseCount.Add(1)
		return obj
	}
	return nil
}

// Free pushes obj straight onto the free list, skipping the retire/epoch
// round trip. Only legal for objects that were never published to the
// shared structure (no reader can hold a reference): the allocate-then-
// lose-the-race path of optimistic inserts.
func (t *Thread) Free(obj any) {
	clearFree(obj)
	t.free = append(t.free, obj)
}

// Clearer is implemented by recycled objects that hold a reference of
// their own — an index node's value word — which must not outlive the
// object's place in the structure. Every way onto a free list (Free, and
// reclamation in Quiescent) calls Clear first, when no reader can reach
// the object any more, so a node waiting for reuse keeps nothing alive
// and memory the structure gave up returns to the collector.
type Clearer interface{ Clear() }

// clearFree clears obj on its way onto a free list, if it asks to be.
func clearFree(obj any) {
	if c, ok := obj.(Clearer); ok {
		c.Clear()
	}
}

// Retire marks obj unreachable from the shared structure as of the current
// epoch. The object will be recycled once every registered thread passes a
// quiescent state.
func (t *Thread) Retire(obj any) {
	t.retired = append(t.retired, retiredObject{obj: obj, epoch: t.domain.epoch.Load()})
	t.retireCount.Add(1)
}

// Quiescent announces that this thread holds no references into the shared
// structures, advances the global epoch, and reclaims every retired object
// whose epoch is older than the minimum announced epoch. Data structures
// call this between operations — exactly the paper's quiescent-state model.
func (t *Thread) Quiescent() {
	e := t.domain.epoch.Add(1)
	t.announced.Store(e)
	if len(t.retired) == 0 {
		if t.domain.orphanCount.Load() > 0 {
			t.domain.minAnnounced() // prunes eligible orphans
		}
		return
	}
	safe := t.domain.minAnnounced()
	// Objects retired strictly before the minimum announced epoch cannot be
	// referenced by any thread anymore. Retirements are stamped with a
	// monotonic epoch, so the retired list is sorted: the reclaimable
	// entries are exactly a prefix, and a sweep that reclaims nothing
	// (another thread's older announcement blocks the whole list) costs
	// O(1) instead of rescanning everything it must keep.
	n := 0
	for n < len(t.retired) && t.retired[n].epoch < safe {
		clearFree(t.retired[n].obj)
		t.free = append(t.free, t.retired[n].obj)
		n++
	}
	if n > 0 {
		t.reclaimCount.Add(uint64(n))
		kept := copy(t.retired, t.retired[n:])
		// Zero the tail so reclaimed entries do not pin objects.
		for i := kept; i < len(t.retired); i++ {
			t.retired[i] = retiredObject{}
		}
		t.retired = t.retired[:kept]
	}
	// Bound the free list: reuse wants a working set, not an unbounded pin
	// of every node the structure ever held. The just-reclaimed tail past
	// the cap goes back to the garbage collector (safe: reclaimed objects
	// are unreachable by construction) — trimmed from the end, so a capped
	// list costs O(excess), never a full-list move.
	if len(t.free) > maxFreeList {
		for i := maxFreeList; i < len(t.free); i++ {
			t.free[i] = nil
		}
		t.free = t.free[:maxFreeList]
	}
}

// maxFreeList caps a thread's free list; see Quiescent.
const maxFreeList = 1 << 14

// Stats reports the lifetime counts of retired, reclaimed and reused
// objects for this thread.
func (t *Thread) Stats() (retired, reclaimed, reused uint64) {
	return t.retireCount.Load(), t.reclaimCount.Load(), t.reuseCount.Load()
}

// PendingRetired returns the number of objects waiting for reclamation.
func (t *Thread) PendingRetired() int { return len(t.retired) }

// FreeListLen returns the number of immediately reusable objects.
func (t *Thread) FreeListLen() int { return len(t.free) }
