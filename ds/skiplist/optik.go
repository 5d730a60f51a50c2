package skiplist

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/internal/backoff"
	"github.com/optik-go/optik/internal/core"
	"github.com/optik-go/optik/internal/qsbr"
)

// oNode is a node of the OPTIK-based skip list. One OPTIK lock protects
// the whole tower — §5.3's deliberate granularity trade-off: version
// validation can fail because an *unrelated* level of the same predecessor
// changed (a false conflict), in exchange for radically simpler validation.
//
// val is the value word (core.Word: a uint64, or a pointer the list holds
// for a layer above), atomic because Upsert replaces it in place under the
// node's own lock while lock-free searches read it. key stays plain: on a
// pool-backed list it is only rewritten during recycling, when qsbr
// guarantees no pinned traversal can still reach the node; on a GC-backed
// list it is written once before publication. The marked and linked flags
// and the height live in the lock word's tag byte (tower.go), so the
// header is 24 bytes and a flag change is a version change. The height is
// written once, at the allocation that sized the tower, and never again —
// not even by recycling.
//
// This is the header only; the forward pointers follow it in the same
// allocation (tower.go) and are reached through at.
type oNode[V any] struct {
	key  uint64
	val  core.Word[V]
	lock core.Lock
}

// at returns the node's level-th forward pointer; level < n.height(). It
// is towerAt written out for the one generic node type: calling the
// generic helper from here would pass it a dictionary looked up on every
// hop of every traversal.
func (n *oNode[V]) at(level int) *atomic.Pointer[oNode[V]] {
	if checkedBuild {
		checkLevel(level, n.height())
	}
	t := (*towerNode[oNode[V], [1]atomic.Pointer[oNode[V]]])(unsafe.Pointer(n))
	return (*atomic.Pointer[oNode[V]])(unsafe.Add(unsafe.Pointer(&t.tower), uintptr(level)*unsafe.Sizeof(t.tower[0])))
}

// height returns the number of levels in the node's tower.
func (n *oNode[V]) height() int { return int(n.lock.Tags() >> heightShift) }

// isMarked reports whether the node is logically deleted.
func (n *oNode[V]) isMarked() bool { return n.lock.Tags()&markedTag != 0 }

// newONode allocates a node with a tower of exactly topLevel levels.
func newONode[V any](key uint64, topLevel int) *oNode[V] {
	n := newTower[oNode[V], oNode[V]](topLevel)
	n.key = key
	n.lock.SetTags(heightTag(topLevel))
	return n
}

// Clear implements qsbr.Clearer: a tower reclaimed onto a free list drops
// its value word, so a list's free towers pin nothing. Only reclamation
// may clear it — a search that passed the marked check before the delete
// still reads the word, and qsbr hands the tower over only once no pinned
// traversal can reach it.
func (n *oNode[V]) Clear() { core.ClearWord(&n.val) }

// Optik is the paper's new skip-list algorithm (§5.3). Parsing tracks the
// version of every predecessor; insertions link *eagerly* — each level is
// physically linked immediately after its predecessor's single-CAS
// validate-and-lock, and a failed level restarts the parse and continues
// from the level that failed. Deletions lock the victim (whose lock is
// never released while the node stays in circulation) and then all
// predecessors before unlinking.
//
// The FineValidate flag selects between the paper's two variants:
// "optik1" revalidates a failed level with the Herlihy-style fine-grained
// check before giving up on it; "optik2" restarts immediately and is the
// more scalable variant under contention.
//
// A list built with NewOptikPool additionally recycles its towers through
// the shared qsbr lifecycle (the same qsbr.Reclaimer carrier the resizable
// hash table's chain nodes use): deleted towers are retired, reclaimed
// once no pinned operation can reach them, and handed back out by the next
// insert. Unlike the hash table — whose readers are protected by version
// validation alone — the skip list's traversals dereference plain fields
// (key, the forward slots), so on a pool-backed list EVERY operation pins
// a qsbr handle for its duration: the pin's announced epoch blocks
// reclamation of anything the traversal can reach. The paper variants (NewOptik1/2) keep
// a nil pool, where every pin is a no-op and unlinked towers drop to the
// garbage collector — identical code path, zero behavior change.
type Optik[V comparable] struct {
	head         *oNode[V]
	tail         *oNode[V]
	fineValidate bool
	// pool hands out qsbr handles for tower recycling; nil means
	// GC-reclaimed (the paper variants).
	pool *qsbr.Pool
}

var _ ds.Set = (*Optik[uint64])(nil)

// NewOptik1 returns the variant that performs fine-grained validation when
// a version check fails ("optik1" in Figure 11).
func NewOptik1() *Optik[uint64] { return newOptik[uint64](true, nil) }

// NewOptik2 returns the variant that restarts immediately on a version
// check failure ("optik2" in Figure 11).
func NewOptik2() *Optik[uint64] { return newOptik[uint64](false, nil) }

// NewOptikPool returns an optik2-variant list of value word V (uint64, or
// a pointer the list then holds for the garbage collector) whose towers
// are recycled through pool's quiescent-state domain — the ordered-index
// counterpart of the resizable hash table's chain-node recycling. Several
// lists may share one pool; pass nil for GC reclamation.
func NewOptikPool[V comparable](pool *qsbr.Pool) *Optik[V] { return newOptik[V](false, pool) }

func newOptik[V comparable](fine bool, pool *qsbr.Pool) *Optik[V] {
	core.CheckWord[V]()
	tail := newONode[V](tailKey, MaxLevel)
	tail.lock.SetTags(linkedTag)
	head := newONode[V](headKey, MaxLevel)
	for l := 0; l < MaxLevel; l++ {
		head.at(l).Store(tail)
	}
	head.lock.SetTags(linkedTag)
	return &Optik[V]{head: head, tail: tail, fineValidate: fine, pool: pool}
}

// Pool returns the reclamation pool backing the list (nil for the
// GC-reclaimed paper variants). store.Ordered uses it to sweep shards from
// the shared maintenance scheduler.
func (s *Optik[V]) Pool() *qsbr.Pool { return s.pool }

// ReclaimStats reports the lifetime tower reclamation counters of the
// list's qsbr domain (all zero for GC-backed lists). Racy snapshot; for
// monitoring and the recycling tests.
func (s *Optik[V]) ReclaimStats() (retired, reclaimed, reused uint64) {
	if s.pool == nil {
		return 0, 0, 0
	}
	return s.pool.Domain().Stats()
}

// allocONode returns a tower for key→val: recycled from the qsbr free list
// when one is available, freshly allocated at a random height otherwise.
// The caller links n.height() levels — the tower's height IS the insert's
// level draw. A recycled tower keeps the height it was born with: retired
// heights are themselves independent geometric draws (nothing about a
// deletion depends on the victim's height, and nothing about the next
// insert's key depends on which tower the free list hands out), so the
// list's level distribution is preserved, the free list needs no size
// classes, and the tower behind an address never changes capacity. The
// rest of a recycled tower is reset: key and value, then its lock — left
// held forever by the deleter that retired it — is reissued in one store
// that releases it with the version advanced, clears marked and linked and
// keeps the height, so any parse still holding a snapshot from the node's
// previous life keeps failing validation (the version is monotone across
// lives, belt to the qsbr suspenders). The forward pointers keep stale
// values until the insert relinks each level.
func allocONode[V any](rc *qsbr.Reclaimer, key uint64, val V) *oNode[V] {
	if v := rc.Alloc(); v != nil {
		n := v.(*oNode[V])
		n.key = key
		core.StoreWord(&n.val, val)
		n.lock.Reissue(heightTag(n.height()))
		return n
	}
	n := newONode[V](key, randomLevel())
	core.StoreWord(&n.val, val)
	return n
}

// find parses the list, recording per level the predecessor, its version
// (read before following its next pointer) and the successor.
func (s *Optik[V]) find(key uint64, preds *[MaxLevel]*oNode[V], predVs *[MaxLevel]core.Version, succs *[MaxLevel]*oNode[V]) {
	pred := s.head
	predv := pred.lock.GetVersion()
	for level := MaxLevel - 1; level >= 0; level-- {
		cur := pred.at(level).Load()
		for cur.key < key {
			pred = cur
			predv = pred.lock.GetVersion()
			cur = pred.at(level).Load()
		}
		preds[level] = pred
		predVs[level] = predv
		succs[level] = cur
	}
}

// Search returns the value stored under key, if present. Traversal is
// plain reads; a node is present iff reached at level 0 and not marked.
func (s *Optik[V]) Search(key uint64) (V, bool) {
	ds.CheckKey(key)
	rc := qsbr.Reclaimer{Pool: s.pool}
	defer rc.Release()
	rc.Pin()
	return s.search(key)
}

func (s *Optik[V]) search(key uint64) (V, bool) {
	pred := s.head
	var cur *oNode[V]
	for level := MaxLevel - 1; level >= 0; level-- {
		cur = pred.at(level).Load()
		for cur.key < key {
			pred = cur
			cur = pred.at(level).Load()
		}
		if cur.key == key {
			break
		}
	}
	if cur.key == key && !cur.isMarked() {
		return core.LoadWord(&cur.val), true
	}
	var zero V
	return zero, false
}

// acquireLevel validates-and-locks pred for one level. Under optik1, a
// version mismatch falls back to fine-grained validation at the current
// version; under optik2 it fails immediately. For deletions succ is the
// (already marked) victim, so the successor-liveness check only applies to
// insertions.
func (s *Optik[V]) acquireLevel(pred, succ *oNode[V], predv core.Version, level int, del bool) bool {
	if pred.lock.TryLockVersion(predv) {
		return true
	}
	if !s.fineValidate {
		return false
	}
	// optik1: the version moved, but the level might be untouched (a false
	// conflict on another level of the tower). Re-validate at the current
	// version and lock it with one more CAS.
	for i := 0; i < 4; i++ { // bounded: fall back to restart under churn
		v := pred.lock.GetVersion()
		if v.IsLocked() || v.Tags()&markedTag != 0 {
			return false
		}
		if pred.at(level).Load() != succ {
			return false
		}
		if !del && succ.isMarked() {
			return false
		}
		if pred.lock.TryLockVersion(v) {
			return true
		}
	}
	return false
}

// Insert adds key→val if absent, linking eagerly level by level. The
// level-0 link is the linearization point; the linked tag keeps a
// partially inserted node from being deleted mid-linking.
func (s *Optik[V]) Insert(key uint64, val V) bool {
	ds.CheckKey(key)
	rc := qsbr.Reclaimer{Pool: s.pool}
	defer rc.Release()
	rc.Pin()
	_, _, inserted := s.insert(&rc, key, val, false)
	return inserted
}

// Upsert adds key→val if absent, or replaces the present value in place —
// one critical section on the node's own tower lock, no delete/re-insert
// round trip. Returns the previous value and whether a replacement
// happened.
func (s *Optik[V]) Upsert(key uint64, val V) (V, bool) {
	ds.CheckKey(key)
	rc := qsbr.Reclaimer{Pool: s.pool}
	defer rc.Release()
	rc.Pin()
	old, replaced, _ := s.insert(&rc, key, val, true)
	return old, replaced
}

// insert is the shared Insert/Upsert loop: parse, handle a present key
// (fail, or replace under the node's lock), otherwise link a new tower
// eagerly level by level. Returns (old value, replaced, inserted).
func (s *Optik[V]) insert(rc *qsbr.Reclaimer, key uint64, val V, upsert bool) (V, bool, bool) {
	var preds, succs [MaxLevel]*oNode[V]
	var predVs [MaxLevel]core.Version
	var n *oNode[V]
	var zero V
	topLevel := 0 // n's height, once n is allocated
	startLevel := 0
	var bo backoff.Backoff
	for {
		s.find(key, &preds, &predVs, &succs)
		if startLevel == 0 {
			if found := succs[0]; found.key == key {
				v := found.lock.GetVersion()
				if v.Tags()&markedTag != 0 {
					// Deletion in flight; its unlink is imminent.
					bo.Wait()
					continue
				}
				if !upsert {
					if n != nil {
						// Allocated on an earlier iteration but never
						// published: straight back to the free list.
						rc.Free(n)
					}
					return zero, false, false
				}
				if v.IsLocked() || !found.lock.TryLockVersion(v) {
					// An inserter is using the node as predecessor, or a
					// deleter owns it (in which case marked flips and the
					// next parse waits the unlink out).
					bo.Wait()
					continue
				}
				// Lockable implies unmarked: deleters hold the lock forever.
				old := core.LoadWord(&found.val)
				core.StoreWord(&found.val, val)
				found.lock.Unlock()
				if n != nil {
					rc.Free(n)
				}
				return old, true, false
			}
		}
		if n == nil {
			n = allocONode[V](rc, key, val)
			topLevel = n.height()
		}
		restartParse := false
		level := startLevel
		for level < topLevel {
			pred := preds[level]
			// One predecessor usually covers a run of consecutive levels;
			// link the whole run under a single acquisition — otherwise the
			// unlock for the lower level would bump the version our own
			// snapshot for the next level depends on (a self-conflict).
			end := level
			for end+1 < topLevel && preds[end+1] == pred {
				end++
			}
			if !s.acquireLevel(pred, succs[level], predVs[level], level, false) {
				// Continue from this level after re-parsing (§5.3: "the
				// insertion continues from the level that failed").
				startLevel = level
				restartParse = true
				break
			}
			// A version-validated acquisition proves every level of pred
			// unchanged since the parse. After optik1's fine-grained
			// fallback only the acquisition level was validated, so check
			// the remaining levels of the run under the lock.
			linked := level
			for l := level; l <= end; l++ {
				if l > level && pred.at(l).Load() != succs[l] {
					break
				}
				n.at(l).Store(succs[l])
				pred.at(l).Store(n)
				linked = l + 1
			}
			pred.lock.Unlock()
			if linked <= end {
				startLevel = linked
				restartParse = true
				break
			}
			level = end + 1
		}
		if restartParse {
			bo.Wait()
			continue
		}
		// A parse that snapshot n since its level-0 link now fails its
		// validation of n and restarts: the tag is a version change.
		n.lock.SetTags(linkedTag)
		return zero, false, true
	}
}

// Delete removes key, returning its value, if present. The victim's OPTIK
// lock is acquired with a single validate-and-lock CAS and never released
// while the node remains in circulation — any parse that cached the dead
// node as a predecessor fails its validation until the tower is recycled
// (and the recycling reset keeps the version monotone, so even then no
// stale snapshot can validate). All predecessor levels are locked before
// the top-down unlink; setting the marked flag is the linearization point.
func (s *Optik[V]) Delete(key uint64) (V, bool) {
	ds.CheckKey(key)
	rc := qsbr.Reclaimer{Pool: s.pool}
	defer rc.Release()
	rc.Pin()
	var zero V
	return s.delete(&rc, key, false, zero)
}

// DeleteIfValue removes key only while it still maps to exactly val,
// reporting whether it did — the skip list's form of hashmap.Resizable's
// primitive of the same name, with the victim's tower lock in the role of
// the bucket lock. The value check runs under the victim's lock BEFORE the
// node is marked: in-place replacement needs that same lock, and a
// delete+re-insert of the key produces a different node, so a passing
// check proves the key still maps to the value the caller sampled. A
// failed check releases the lock with Revert — no version bump, nothing
// changed — and leaves the entry in place. For a pointer word the check is
// identity, which is exact for a layer that never stores one pointer twice
// (store.Strings: a fresh pair for every write).
func (s *Optik[V]) DeleteIfValue(key uint64, val V) bool {
	ds.CheckKey(key)
	rc := qsbr.Reclaimer{Pool: s.pool}
	defer rc.Release()
	rc.Pin()
	_, ok := s.delete(&rc, key, true, val)
	return ok
}

// ReplaceIfValue swaps key's value from exactly old to new under the
// node's own lock, reporting whether it did; a missing key, a node being
// deleted or another value changes nothing. It is DeleteIfValue's sibling,
// for a layer that replaces a value it read (store.Strings re-arming a
// TTL) and must not overwrite a successor.
func (s *Optik[V]) ReplaceIfValue(key uint64, old, new V) bool {
	ds.CheckKey(key)
	rc := qsbr.Reclaimer{Pool: s.pool}
	defer rc.Release()
	rc.Pin()
	var preds, succs [MaxLevel]*oNode[V]
	var predVs [MaxLevel]core.Version
	var bo backoff.Backoff
	for {
		s.find(key, &preds, &predVs, &succs)
		n := succs[0]
		if n.key != key {
			return false
		}
		v := n.lock.GetVersion()
		if v.Tags()&markedTag != 0 {
			return false
		}
		if v.IsLocked() || !n.lock.TryLockVersion(v) {
			// An inserter is using the node as predecessor, or a deleter
			// owns it (and the next parse sees it marked).
			bo.Wait()
			continue
		}
		// Lockable implies unmarked: deleters hold the lock forever.
		if core.LoadWord(&n.val) != old {
			n.lock.Revert()
			return false
		}
		core.StoreWord(&n.val, new)
		n.lock.Unlock()
		return true
	}
}

// testHookDeleteWindow, when non-nil, runs inside a conditional delete
// after the parse found its victim and before the victim's lock is taken —
// the optimistic window in which a concurrent replacement can change what
// the key maps to. The white-box test stages that interleaving through it.
var testHookDeleteWindow func()

// delete is the shared Delete/DeleteIfValue loop; with match set the
// victim goes only if its value is want.
func (s *Optik[V]) delete(rc *qsbr.Reclaimer, key uint64, match bool, want V) (V, bool) {
	var preds, succs [MaxLevel]*oNode[V]
	var predVs [MaxLevel]core.Version
	var victim *oNode[V]
	var val, zero V
	owned := false
	var bo backoff.Backoff
	for {
		s.find(key, &preds, &predVs, &succs)
		if !owned {
			victim = succs[0]
			if victim.key != key {
				return zero, false
			}
			v := victim.lock.GetVersion()
			if v.Tags()&markedTag != 0 {
				return zero, false
			}
			if v.Tags()&linkedTag == 0 {
				// Partially inserted: wait for the inserter to finish.
				runtime.Gosched()
				continue
			}
			if h := testHookDeleteWindow; match && h != nil {
				h()
			}
			if v.IsLocked() || !victim.lock.TryLockVersion(v) {
				// A concurrent insert is using the victim as predecessor,
				// or another delete owns it; re-examine.
				if victim.isMarked() {
					return zero, false
				}
				bo.Wait()
				continue
			}
			// The validated snapshot had the victim linked and unmarked. Its
			// lock is held (forever, once marked) from here on, so its value
			// is frozen: read it once at acquisition.
			val = core.LoadWord(&victim.val)
			if match && val != want {
				victim.lock.Revert()
				return zero, false
			}
			victim.lock.SetTags(markedTag) // linearization point
			owned = true
		}
		// Lock every predecessor level (distinct nodes once), descending
		// key order overall, so concurrent deletes cannot deadlock.
		topLevel := victim.height()
		highestLocked := -1
		var prevPred *oNode[V]
		ok := true
		for level := 0; level < topLevel; level++ {
			pred := preds[level]
			if pred == prevPred {
				if pred.at(level).Load() != victim {
					ok = false
					break
				}
				continue
			}
			if !s.acquireLevel(pred, victim, predVs[level], level, true) {
				ok = false
				break
			}
			// The version validated (or fine-validation passed), so
			// pred.at(level) == victim still holds.
			highestLocked = level
			prevPred = pred
		}
		if !ok {
			revertOPreds(&preds, highestLocked)
			bo.Wait()
			continue // the deletion is owned; retry the unlink only
		}
		for level := topLevel - 1; level >= 0; level-- {
			preds[level].at(level).Store(victim.at(level).Load())
		}
		unlockOPreds(&preds, highestLocked)
		// victim.lock stays acquired until the tower is recycled; the
		// retirement hands it to qsbr (or the GC, without a pool), and
		// qsbr clears its value word as it reclaims it (oNode.Clear).
		rc.Retire(victim)
		return val, true
	}
}

func unlockOPreds[V any](preds *[MaxLevel]*oNode[V], highestLocked int) {
	var prev *oNode[V]
	for level := 0; level <= highestLocked; level++ {
		if preds[level] != prev {
			preds[level].lock.Unlock()
			prev = preds[level]
		}
	}
}

func revertOPreds[V any](preds *[MaxLevel]*oNode[V], highestLocked int) {
	var prev *oNode[V]
	for level := 0; level <= highestLocked; level++ {
		if preds[level] != prev {
			preds[level].lock.Revert()
			prev = preds[level]
		}
	}
}

// ScanRange copies the live entries with from <= key <= to, in ascending
// key order, into keys/vals (which must be the same length), returning how
// many were filled — the ordered-index primitive behind the wire's
// SCAN/RANGE. The page is not an atomic snapshot: each entry was present
// at the instant it was visited. The level-0 walk's position is a node
// pointer, not an index, so concurrent unlinks ahead of or behind the
// cursor neither skip nor repeat keys that stay present throughout (the
// iterator invariant test pins this); accepted keys are strictly
// ascending by construction.
func (s *Optik[V]) ScanRange(from, to uint64, keys []uint64, vals []V) int {
	ds.CheckKey(from)
	ds.CheckKey(to)
	if len(keys) == 0 || from > to {
		return 0
	}
	rc := qsbr.Reclaimer{Pool: s.pool}
	defer rc.Release()
	rc.Pin()
	// Descend to the level-0 predecessor of from.
	pred := s.head
	for level := MaxLevel - 1; level >= 0; level-- {
		cur := pred.at(level).Load()
		for cur.key < from {
			pred = cur
			cur = pred.at(level).Load()
		}
	}
	n := 0
	for cur := pred.at(0).Load(); n < len(keys) && cur.key <= to; cur = cur.at(0).Load() {
		// cur.key >= from is not guaranteed for the first hop (a concurrent
		// insert can slot a smaller key behind the descent's predecessor),
		// so filter explicitly.
		if cur.key >= from && !cur.isMarked() {
			keys[n] = cur.key
			vals[n] = core.LoadWord(&cur.val)
			n++
		}
	}
	return n
}

// Min returns the smallest live key and its value. ok is false on an
// empty list.
func (s *Optik[V]) Min() (key uint64, val V, ok bool) {
	rc := qsbr.Reclaimer{Pool: s.pool}
	defer rc.Release()
	rc.Pin()
	for cur := s.head.at(0).Load(); cur != s.tail; cur = cur.at(0).Load() {
		if !cur.isMarked() {
			return cur.key, core.LoadWord(&cur.val), true
		}
	}
	return 0, val, false
}

// Max returns the largest live key and its value. ok is false on an empty
// list. The descent rides the top levels to the last tower, so Max is a
// parse, not a level-0 walk; a marked last node (mid-unlink) retries.
func (s *Optik[V]) Max() (key uint64, val V, ok bool) {
	rc := qsbr.Reclaimer{Pool: s.pool}
	defer rc.Release()
	rc.Pin()
	var bo backoff.Backoff
	for {
		pred := s.head
		for level := MaxLevel - 1; level >= 0; level-- {
			cur := pred.at(level).Load()
			for cur.key < tailKey {
				pred = cur
				cur = pred.at(level).Load()
			}
		}
		if pred == s.head {
			return 0, val, false
		}
		if !pred.isMarked() {
			return pred.key, core.LoadWord(&pred.val), true
		}
		// The last tower is mid-unlink; its predecessor takes over as the
		// maximum the moment the unlink lands.
		bo.Wait()
	}
}

// SearchBatch looks up keys[i] into vals[i]/found[i], pinning one qsbr
// handle for the whole batch instead of one per key — the batched-store
// shape (store.Ordered routes shard batches here).
func (s *Optik[V]) SearchBatch(keys []uint64, vals []V, found []bool) {
	rc := qsbr.Reclaimer{Pool: s.pool}
	defer rc.Release()
	rc.Pin()
	for i, k := range keys {
		ds.CheckKey(k)
		vals[i], found[i] = s.search(k)
	}
}

// UpsertBatchEach upserts keys[i]→vals[i], recording the replaced value
// and whether a replacement happened per key, and returns how many keys
// were newly inserted. One qsbr pin covers the whole batch.
func (s *Optik[V]) UpsertBatchEach(keys []uint64, vals, old []V, replaced []bool) int {
	rc := qsbr.Reclaimer{Pool: s.pool}
	defer rc.Release()
	rc.Pin()
	inserted := 0
	for i, k := range keys {
		ds.CheckKey(k)
		var ins bool
		old[i], replaced[i], ins = s.insert(&rc, k, vals[i], true)
		if ins {
			inserted++
		}
	}
	return inserted
}

// DeleteBatchEach deletes keys[i], recording the removed value and whether
// the key was present, and returns how many were removed. One qsbr pin
// covers the whole batch.
func (s *Optik[V]) DeleteBatchEach(keys []uint64, old []V, found []bool) int {
	rc := qsbr.Reclaimer{Pool: s.pool}
	defer rc.Release()
	rc.Pin()
	removed := 0
	var zero V
	for i, k := range keys {
		ds.CheckKey(k)
		old[i], found[i] = s.delete(&rc, k, false, zero)
		if found[i] {
			removed++
		}
	}
	return removed
}

// Len counts unmarked elements at level 0 (not linearizable).
func (s *Optik[V]) Len() int {
	rc := qsbr.Reclaimer{Pool: s.pool}
	defer rc.Release()
	rc.Pin()
	n := 0
	for cur := s.head.at(0).Load(); cur != s.tail; cur = cur.at(0).Load() {
		if !cur.isMarked() {
			n++
		}
	}
	return n
}
