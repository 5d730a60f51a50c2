package skiplist

import (
	"runtime"
	"sync/atomic"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/internal/backoff"
	"github.com/optik-go/optik/internal/locks"
)

// hNode is a node of the Herlihy optimistic skip list: per-node TAS lock,
// logical-deletion flag, and a fullyLinked flag that marks the end of the
// multi-level linking (the insert's linearization point). It is the header
// of a tower.go allocation; its forward pointers are reached through at.
// The flags and the height share one 32-bit word beside the 4-byte lock
// (hMarked, hLinked, hHeightShift), so the header is 24 bytes like the
// OPTIK nodes' and Figure 11 compares like with like.
type hNode struct {
	key   uint64
	val   uint64
	lock  locks.TAS
	state atomic.Uint32
}

// hNode's state word: the two flags, and the height (in [1, MaxLevel],
// written before publication and never again) above them.
const (
	hMarked      = 1 << 0
	hLinked      = 1 << 1
	hHeightShift = 2
)

// at returns the node's level-th forward pointer; level < n.height().
func (n *hNode) at(level int) *atomic.Pointer[hNode] {
	if checkedBuild {
		checkLevel(level, n.height())
	}
	return towerAt[hNode, hNode](n, level)
}

// height returns the number of levels in the node's tower.
func (n *hNode) height() int { return int(n.state.Load() >> hHeightShift) }

// isMarked reports whether the node is logically deleted.
func (n *hNode) isMarked() bool { return n.state.Load()&hMarked != 0 }

// present reports whether the node is fully linked and not marked — in
// the set — from one load of its state.
func (n *hNode) present() bool { return n.state.Load()&(hMarked|hLinked) == hLinked }

// newHNode allocates a node with a tower of exactly topLevel levels.
func newHNode(key, val uint64, topLevel int) *hNode {
	n := newTower[hNode, hNode](topLevel)
	n.key, n.val = key, val
	n.state.Store(uint32(topLevel) << hHeightShift)
	return n
}

// Herlihy is the optimistic skip list of Herlihy, Lev, Luchangco and
// Shavit [29] ("herlihy" in Figure 11): traversals are unsynchronized;
// updates lock the predecessors and validate adjacency and liveness inside
// the critical section — lock-then-validate, the pattern OPTIK collapses
// into one CAS.
type Herlihy struct {
	head *hNode
	tail *hNode
}

var _ ds.Set = (*Herlihy)(nil)

// NewHerlihy returns an empty Herlihy skip list.
func NewHerlihy() *Herlihy {
	tail := newHNode(tailKey, 0, MaxLevel)
	tail.state.Or(hLinked)
	head := newHNode(headKey, 0, MaxLevel)
	for l := 0; l < MaxLevel; l++ {
		head.at(l).Store(tail)
	}
	head.state.Or(hLinked)
	return &Herlihy{head: head, tail: tail}
}

// find locates key's predecessors and successors on every level and
// returns the highest level at which key was found (-1 if absent).
func (s *Herlihy) find(key uint64, preds, succs *[MaxLevel]*hNode) int {
	lFound := -1
	pred := s.head
	for level := MaxLevel - 1; level >= 0; level-- {
		cur := pred.at(level).Load()
		for cur.key < key {
			pred = cur
			cur = pred.at(level).Load()
		}
		if lFound == -1 && cur.key == key {
			lFound = level
		}
		preds[level] = pred
		succs[level] = cur
	}
	return lFound
}

// Search returns the value stored under key, if present: present means
// reached, fully linked and not marked.
func (s *Herlihy) Search(key uint64) (uint64, bool) {
	ds.CheckKey(key)
	var preds, succs [MaxLevel]*hNode
	lFound := s.find(key, &preds, &succs)
	if lFound == -1 {
		return 0, false
	}
	n := succs[lFound]
	if n.present() {
		return n.val, true
	}
	return 0, false
}

// Insert adds key→val if absent.
func (s *Herlihy) Insert(key, val uint64) bool {
	ds.CheckKey(key)
	topLevel := randomLevel()
	var preds, succs [MaxLevel]*hNode
	var bo backoff.Backoff
	for {
		lFound := s.find(key, &preds, &succs)
		if lFound != -1 {
			found := succs[lFound]
			if !found.isMarked() {
				// Wait out a concurrent insert of the same key: returning
				// false is only linearizable once the node is fully linked.
				for found.state.Load()&hLinked == 0 {
					runtime.Gosched()
				}
				return false
			}
			// Marked: its delete is in flight; retry.
			bo.Wait()
			continue
		}
		// Lock the distinct predecessors bottom-up and validate.
		highestLocked := -1
		var prevPred *hNode
		valid := true
		for level := 0; valid && level < topLevel; level++ {
			pred, succ := preds[level], succs[level]
			if pred != prevPred {
				pred.lock.Lock()
				highestLocked = level
				prevPred = pred
			}
			valid = !pred.isMarked() && !succ.isMarked() && pred.at(level).Load() == succ
		}
		if !valid {
			unlockHPreds(&preds, highestLocked)
			bo.Wait()
			continue
		}
		n := newHNode(key, val, topLevel)
		for level := 0; level < topLevel; level++ {
			n.at(level).Store(succs[level])
		}
		for level := 0; level < topLevel; level++ {
			preds[level].at(level).Store(n)
		}
		n.state.Or(hLinked) // linearization point
		unlockHPreds(&preds, highestLocked)
		return true
	}
}

// unlockHPreds releases the distinct predecessor locks taken up to level
// highestLocked (inclusive).
func unlockHPreds(preds *[MaxLevel]*hNode, highestLocked int) {
	var prev *hNode
	for level := 0; level <= highestLocked; level++ {
		if preds[level] != prev {
			preds[level].lock.Unlock()
			prev = preds[level]
		}
	}
}

// Delete removes key, returning its value, if present. Marking the victim
// is the linearization point; unlinking happens under the predecessor
// locks.
func (s *Herlihy) Delete(key uint64) (uint64, bool) {
	ds.CheckKey(key)
	var preds, succs [MaxLevel]*hNode
	var victim *hNode
	isMarked := false
	topLevel := -1
	var bo backoff.Backoff
	for {
		lFound := s.find(key, &preds, &succs)
		if !isMarked {
			if lFound == -1 {
				return 0, false
			}
			victim = succs[lFound]
			if !victim.present() || victim.height()-1 != lFound {
				if victim.isMarked() {
					return 0, false
				}
				// Not yet fully linked (or found below its top): retry.
				bo.Wait()
				continue
			}
			topLevel = victim.height()
			victim.lock.Lock()
			if victim.isMarked() {
				victim.lock.Unlock()
				return 0, false
			}
			victim.state.Or(hMarked) // linearization point
			isMarked = true
		}
		// Lock predecessors and validate adjacency to the victim.
		highestLocked := -1
		var prevPred *hNode
		valid := true
		for level := 0; valid && level < topLevel; level++ {
			pred := preds[level]
			if pred != prevPred {
				pred.lock.Lock()
				highestLocked = level
				prevPred = pred
			}
			valid = !pred.isMarked() && pred.at(level).Load() == victim
		}
		if !valid {
			unlockHPreds(&preds, highestLocked)
			bo.Wait()
			continue
		}
		for level := topLevel - 1; level >= 0; level-- {
			preds[level].at(level).Store(victim.at(level).Load())
		}
		val := victim.val
		victim.lock.Unlock()
		unlockHPreds(&preds, highestLocked)
		return val, true
	}
}

// Len counts fully linked, unmarked elements at level 0 (not linearizable).
func (s *Herlihy) Len() int {
	n := 0
	for cur := s.head.at(0).Load(); cur != s.tail; cur = cur.at(0).Load() {
		if cur.present() {
			n++
		}
	}
	return n
}
