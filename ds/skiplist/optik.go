package skiplist

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/internal/backoff"
	"github.com/optik-go/optik/internal/core"
)

// oNode is a node of the OPTIK-based skip list. One OPTIK lock protects
// the whole tower — §5.3's deliberate granularity trade-off: version
// validation can fail because an *unrelated* level of the same predecessor
// changed (a false conflict), in exchange for radically simpler validation.
//
// val is the value word (core.Word: a uint64, or a pointer the list holds
// for a layer above), atomic because Upsert replaces it in place under the
// node's own lock while lock-free searches read it. key stays plain: it is
// written once, before publication, and a tower is never reused — an
// unlinked tower is frozen until the collector frees it. The marked and
// linked flags and the height live in the lock word's tag byte (tower.go),
// so the header is 24 bytes and a flag change is a version change. The
// height is written once, at the allocation that sized the tower.
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
// Unlinked towers go to the garbage collector, which frees one only once
// no traversal can still reach it, so a traversal may dereference plain
// fields (key, the forward slots) of any tower it reaches without pinning
// anything.
type Optik[V comparable] struct {
	head         *oNode[V]
	tail         *oNode[V]
	fineValidate bool
}

var _ ds.Set = (*Optik[uint64])(nil)

// NewOptik1 returns the variant that performs fine-grained validation when
// a version check fails ("optik1" in Figure 11).
func NewOptik1() *Optik[uint64] { return newOptik[uint64](true) }

// NewOptik2 returns the variant that restarts immediately on a version
// check failure ("optik2" in Figure 11).
func NewOptik2() *Optik[uint64] { return newOptik[uint64](false) }

// NewOptikOf returns an optik2-variant list of value word V: uint64, or a
// pointer the list then holds for the garbage collector (the string
// layer's pairs). Any other V panics.
func NewOptikOf[V comparable]() *Optik[V] { return newOptik[V](false) }

func newOptik[V comparable](fine bool) *Optik[V] {
	core.CheckWord[V]()
	tail := newONode[V](tailKey, MaxLevel)
	tail.lock.SetTags(linkedTag)
	head := newONode[V](headKey, MaxLevel)
	for l := 0; l < MaxLevel; l++ {
		head.at(l).Store(tail)
	}
	head.lock.SetTags(linkedTag)
	return &Optik[V]{head: head, tail: tail, fineValidate: fine}
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
	_, _, _, inserted := s.write(key, ds.Put[V]{Val: val}, false)
	return inserted
}

// Upsert adds key→val if absent, or replaces the present value in place:
// Write with a value already built.
func (s *Optik[V]) Upsert(key uint64, val V) (V, bool) {
	old, _, replaced := s.Write(key, ds.Put[V]{Val: val})
	return old, replaced
}

// Write is the list's one write body: it adds key if absent, or replaces
// the present value in place — one critical section on the node's own
// tower lock, no delete/re-insert round trip. It returns the previous
// value, the value key maps to on return, and whether key was present.
//
// A present value is first offered to p.Keep, once validated as Search
// validates a hit — the node reached at level 0 and unmarked — and
// against the tower's version, so a node a delete marked after the parse
// read it is never judged. A kept value is the infeasible update: no
// lock, no store, no version bump, and val is old. Otherwise p.Build, if
// set, builds val before any lock is tried.
func (s *Optik[V]) Write(key uint64, p ds.Put[V]) (old, val V, replaced bool) {
	ds.CheckKey(key)
	old, val, replaced, _ = s.write(key, p, true)
	return old, val, replaced
}

// write is the shared Insert/Write loop: parse, handle a present key
// (fail, keep, or replace under the node's lock), otherwise link a new
// tower eagerly level by level. Returns (old value, value mapped,
// replaced, inserted).
func (s *Optik[V]) write(key uint64, p ds.Put[V], upsert bool) (old, val V, replaced, inserted bool) {
	var preds, succs [MaxLevel]*oNode[V]
	var predVs [MaxLevel]core.Version
	var n *oNode[V]
	val = p.Val
	built := p.Build == nil
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
					return old, val, false, false
				}
				if p.Keep != nil {
					if h := testHookWriteHit; h != nil {
						h()
					}
					old = core.LoadWord(&found.val)
					if !found.lock.GetVersion().Same(v) {
						continue
					}
					if p.Keep(old, p) {
						return old, old, true, false // infeasible: no locking at all
					}
				}
				if !built {
					val, built = p.Build(p), true
				}
				if v.IsLocked() || !found.lock.TryLockVersion(v) {
					// An inserter is using the node as predecessor, or a
					// deleter owns it (in which case marked flips and the
					// next parse waits the unlink out).
					bo.Wait()
					continue
				}
				// Lockable implies unmarked: deleters hold the lock forever.
				old = core.LoadWord(&found.val)
				core.StoreWord(&found.val, val)
				found.lock.Unlock()
				return old, val, true, false
			}
		}
		if !built {
			val, built = p.Build(p), true
		}
		if n == nil {
			n = newONode[V](key, randomLevel())
			core.StoreWord(&n.val, val)
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
		var zero V
		return zero, val, false, true
	}
}

// Delete removes key, returning its value, if present. The victim's OPTIK
// lock is acquired with a single validate-and-lock CAS and never released
// — any parse that cached the dead node as a predecessor fails its
// validation for as long as it can reach the tower. All predecessor levels
// are locked before the top-down unlink; setting the marked flag is the
// linearization point.
func (s *Optik[V]) Delete(key uint64) (V, bool) {
	ds.CheckKey(key)
	var zero V
	return s.delete(key, false, zero)
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
// (store.Strings: a fresh pair for every write that stores).
func (s *Optik[V]) DeleteIfValue(key uint64, val V) bool {
	ds.CheckKey(key)
	_, ok := s.delete(key, true, val)
	return ok
}

// ReplaceIfValue swaps key's value from exactly old to new under the
// node's own lock, reporting whether it did; a missing key, a node being
// deleted or another value changes nothing. It is DeleteIfValue's sibling,
// for a layer that replaces a value it read (store.Strings re-arming a
// TTL) and must not overwrite a successor.
func (s *Optik[V]) ReplaceIfValue(key uint64, old, new V) bool {
	ds.CheckKey(key)
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

// testHookWriteHit, when non-nil, runs in Write after the parse found its
// key unmarked and before the value Keep judges is loaded — the window in
// which a delete can mark and unlink the node. The white-box validation
// test stages that interleaving through it.
var testHookWriteHit func()

// testHookDeleteWindow, when non-nil, runs inside a conditional delete
// after the parse found its victim and before the victim's lock is taken —
// the optimistic window in which a concurrent replacement can change what
// the key maps to. The white-box test stages that interleaving through it.
var testHookDeleteWindow func()

// delete is the shared Delete/DeleteIfValue loop; with match set the
// victim goes only if its value is want.
func (s *Optik[V]) delete(key uint64, match bool, want V) (V, bool) {
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
		// victim.lock stays acquired, and the tower goes to the collector
		// with its value word as the delete left it.
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

// Len counts unmarked elements at level 0 (not linearizable).
func (s *Optik[V]) Len() int {
	n := 0
	for cur := s.head.at(0).Load(); cur != s.tail; cur = cur.at(0).Load() {
		if !cur.isMarked() {
			n++
		}
	}
	return n
}
