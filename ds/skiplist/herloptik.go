package skiplist

import (
	"runtime"
	"sync/atomic"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/internal/backoff"
	"github.com/optik-go/optik/internal/core"
)

// hoNode is a node of the Herlihy skip list with OPTIK locks: the header
// of a tower.go allocation, its forward pointers reached through at. Its
// marked and fullyLinked flags and its height (immutable, in [1,
// MaxLevel]) live in the lock word's tag byte, like oNode's.
type hoNode struct {
	key  uint64
	val  uint64
	lock core.Lock
}

// at returns the node's level-th forward pointer; level < n.height().
func (n *hoNode) at(level int) *atomic.Pointer[hoNode] {
	if checkedBuild {
		checkLevel(level, n.height())
	}
	return towerAt[hoNode, hoNode](n, level)
}

// height returns the number of levels in the node's tower.
func (n *hoNode) height() int { return int(n.lock.Tags() >> heightShift) }

// isMarked reports whether the node is logically deleted.
func (n *hoNode) isMarked() bool { return n.lock.Tags()&markedTag != 0 }

// present reports whether the node is fully linked and not marked — in
// the set — from one load of its tags.
func (n *hoNode) present() bool { return n.lock.Tags()&(markedTag|linkedTag) == linkedTag }

// newHONode allocates a node with a tower of exactly topLevel levels.
func newHONode(key, val uint64, topLevel int) *hoNode {
	n := newTower[hoNode, hoNode](topLevel)
	n.key, n.val = key, val
	n.lock.SetTags(heightTag(topLevel))
	return n
}

// HerlihyOptik is the paper's first skip-list contribution ("herl-optik"):
// the Herlihy algorithm with the per-node locks replaced by OPTIK locks.
// find records each predecessor's version; when locking acquires the
// version unchanged, the node provably was not modified since the parse,
// so the fine-grained validation of the original algorithm is skipped —
// "the faster validation with OPTIK results in an important reduction of
// operation restarts" (§5.3).
type HerlihyOptik struct {
	head *hoNode
	tail *hoNode
}

var _ ds.Set = (*HerlihyOptik)(nil)

// NewHerlihyOptik returns an empty herl-optik skip list.
func NewHerlihyOptik() *HerlihyOptik {
	tail := newHONode(tailKey, 0, MaxLevel)
	tail.lock.SetTags(linkedTag)
	head := newHONode(headKey, 0, MaxLevel)
	for l := 0; l < MaxLevel; l++ {
		head.at(l).Store(tail)
	}
	head.lock.SetTags(linkedTag)
	return &HerlihyOptik{head: head, tail: tail}
}

// find locates predecessors/successors per level, recording each
// predecessor's OPTIK version *before* following its next pointer (the
// hand-over-hand version tracking of §4.2 lifted to towers).
func (s *HerlihyOptik) find(key uint64, preds *[MaxLevel]*hoNode, predVs *[MaxLevel]core.Version, succs *[MaxLevel]*hoNode) int {
	lFound := -1
	pred := s.head
	predv := pred.lock.GetVersion()
	for level := MaxLevel - 1; level >= 0; level-- {
		cur := pred.at(level).Load()
		for cur.key < key {
			pred = cur
			predv = pred.lock.GetVersion()
			cur = pred.at(level).Load()
		}
		if lFound == -1 && cur.key == key {
			lFound = level
		}
		preds[level] = pred
		predVs[level] = predv
		succs[level] = cur
	}
	return lFound
}

// Search returns the value stored under key, if present.
func (s *HerlihyOptik) Search(key uint64) (uint64, bool) {
	ds.CheckKey(key)
	var preds, succs [MaxLevel]*hoNode
	var predVs [MaxLevel]core.Version
	lFound := s.find(key, &preds, &predVs, &succs)
	if lFound == -1 {
		return 0, false
	}
	n := succs[lFound]
	if n.present() {
		return n.val, true
	}
	return 0, false
}

// lockPred acquires pred's OPTIK lock for the given level. It returns
// whether the acquisition is valid for linking before succ: either the
// version was unchanged since the parse (no validation needed), or the
// Herlihy fine-grained validation passes. On invalid it leaves the lock
// HELD; the caller reverts through unlockHOPreds.
func lockPredValid(pred, succOrVictim *hoNode, predv core.Version, level int, del bool) bool {
	if pred.lock.LockVersion(predv) {
		// Version validated: pred was not modified since the parse. One
		// liveness check is still required: herl-optik releases a victim's
		// lock after unlinking it, so a parse that walked onto an
		// already-unlinked node observes a *stable* (released) version that
		// would validate here even though the node is dead — linking
		// through it would lose the update. A dead node is always marked,
		// and marked is a tag of the very version just validated, so predv
		// itself decides liveness definitively: no second load.
		return predv.Tags()&markedTag == 0
	}
	// Fine-grained fallback (the original [29] validation).
	if del {
		return !pred.isMarked() && pred.at(level).Load() == succOrVictim
	}
	return !pred.isMarked() && !succOrVictim.isMarked() &&
		pred.at(level).Load() == succOrVictim
}

// Insert adds key→val if absent.
func (s *HerlihyOptik) Insert(key, val uint64) bool {
	ds.CheckKey(key)
	topLevel := randomLevel()
	var preds, succs [MaxLevel]*hoNode
	var predVs [MaxLevel]core.Version
	var bo backoff.Backoff
	for {
		lFound := s.find(key, &preds, &predVs, &succs)
		if lFound != -1 {
			found := succs[lFound]
			if !found.isMarked() {
				for found.lock.Tags()&linkedTag == 0 {
					runtime.Gosched()
				}
				return false
			}
			bo.Wait()
			continue
		}
		highestLocked := -1
		var prevPred *hoNode
		valid := true
		for level := 0; valid && level < topLevel; level++ {
			pred, succ := preds[level], succs[level]
			if pred != prevPred {
				valid = lockPredValid(pred, succ, predVs[level], level, false)
				highestLocked = level
				prevPred = pred
			} else {
				// Same pred as the level below, already locked: only the
				// per-level adjacency needs checking (one lock covers the
				// whole tower — the false-conflict granularity of §5.3).
				valid = !succ.isMarked() && pred.at(level).Load() == succ
			}
		}
		if !valid {
			revertHOPreds(&preds, highestLocked)
			bo.Wait()
			continue
		}
		n := newHONode(key, val, topLevel)
		for level := 0; level < topLevel; level++ {
			n.at(level).Store(succs[level])
		}
		for level := 0; level < topLevel; level++ {
			preds[level].at(level).Store(n)
		}
		n.lock.SetTags(linkedTag) // linearization point
		unlockHOPreds(&preds, highestLocked)
		return true
	}
}

// unlockHOPreds releases modified predecessor locks, advancing their
// versions.
func unlockHOPreds(preds *[MaxLevel]*hoNode, highestLocked int) {
	var prev *hoNode
	for level := 0; level <= highestLocked; level++ {
		if preds[level] != prev {
			preds[level].lock.Unlock()
			prev = preds[level]
		}
	}
}

// revertHOPreds releases untouched predecessor locks, restoring their
// versions (optik_revert) so unrelated parses do not observe a false
// conflict.
func revertHOPreds(preds *[MaxLevel]*hoNode, highestLocked int) {
	var prev *hoNode
	for level := 0; level <= highestLocked; level++ {
		if preds[level] != prev {
			preds[level].lock.Revert()
			prev = preds[level]
		}
	}
}

// Delete removes key, returning its value, if present.
func (s *HerlihyOptik) Delete(key uint64) (uint64, bool) {
	ds.CheckKey(key)
	var preds, succs [MaxLevel]*hoNode
	var predVs [MaxLevel]core.Version
	var victim *hoNode
	isMarked := false
	topLevel := -1
	var bo backoff.Backoff
	for {
		lFound := s.find(key, &preds, &predVs, &succs)
		if !isMarked {
			if lFound == -1 {
				return 0, false
			}
			victim = succs[lFound]
			if !victim.present() || victim.height()-1 != lFound {
				if victim.isMarked() {
					return 0, false
				}
				bo.Wait()
				continue
			}
			topLevel = victim.height()
			victim.lock.Lock()
			if victim.isMarked() {
				victim.lock.Revert()
				return 0, false
			}
			victim.lock.SetTags(markedTag) // linearization point
			isMarked = true
		}
		highestLocked := -1
		var prevPred *hoNode
		valid := true
		for level := 0; valid && level < topLevel; level++ {
			pred := preds[level]
			if pred != prevPred {
				valid = lockPredValid(pred, victim, predVs[level], level, true)
				highestLocked = level
				prevPred = pred
			} else {
				valid = pred.at(level).Load() == victim
			}
		}
		if !valid {
			revertHOPreds(&preds, highestLocked)
			bo.Wait()
			continue
		}
		for level := topLevel - 1; level >= 0; level-- {
			preds[level].at(level).Store(victim.at(level).Load())
		}
		val := victim.val
		victim.lock.Unlock()
		unlockHOPreds(&preds, highestLocked)
		return val, true
	}
}

// Len counts fully linked, unmarked elements at level 0 (not linearizable).
func (s *HerlihyOptik) Len() int {
	n := 0
	for cur := s.head.at(0).Load(); cur != s.tail; cur = cur.at(0).Load() {
		if cur.present() {
			n++
		}
	}
	return n
}
