package skiplist

import (
	"sync/atomic"

	"github.com/optik-go/optik/ds"
)

// fRef is an immutable (successor, marked) record for one level of a
// Fraser node; the mark and successor change together in a single CAS
// (the Go-safe port of pointer-bit marking, as in ds/list's Harris list).
type fRef struct {
	node   *fNode
	marked bool
}

// fNode is a node of the lock-free skip list: the header of a tower.go
// allocation, its topLevel successor records reached through at.
type fNode struct {
	key      uint64
	val      uint64
	topLevel int // number of levels, in [1, MaxLevel]; immutable
}

// at returns the node's level-th successor record; level < n.topLevel.
func (n *fNode) at(level int) *atomic.Pointer[fRef] {
	return towerAt[fNode, fRef](n, n.topLevel, level)
}

// newFNode allocates a node with a tower of exactly topLevel levels.
func newFNode(key, val uint64, topLevel int) *fNode {
	n := newTower[fNode, fRef](topLevel)
	n.key, n.val, n.topLevel = key, val, topLevel
	return n
}

// Fraser is the lock-free skip list of Fraser [15], in the formulation of
// Herlihy & Shavit ("fraser" in Figure 11). Deletion marks every level of
// the victim top-down; the level-0 mark is the linearization point, and
// traversals physically snip marked nodes.
type Fraser struct {
	head *fNode
	tail *fNode
}

var _ ds.Set = (*Fraser)(nil)

// NewFraser returns an empty lock-free skip list.
func NewFraser() *Fraser {
	tail := newFNode(tailKey, 0, MaxLevel)
	for l := 0; l < MaxLevel; l++ {
		tail.at(l).Store(&fRef{})
	}
	head := newFNode(headKey, 0, MaxLevel)
	for l := 0; l < MaxLevel; l++ {
		head.at(l).Store(&fRef{node: tail})
	}
	return &Fraser{head: head, tail: tail}
}

// find locates predecessors/successors per level, snipping marked nodes as
// it goes. predRefs[l] is the exact record inside preds[l].at(l) that
// points at succs[l] — the comparand for the caller's CAS. Returns whether
// an unmarked node with the key sits at level 0.
func (s *Fraser) find(key uint64, preds, succs *[MaxLevel]*fNode, predRefs *[MaxLevel]*fRef) bool {
retry:
	for {
		pred := s.head
		for level := MaxLevel - 1; level >= 0; level-- {
			predRef := pred.at(level).Load()
			if predRef.marked {
				// pred was deleted while we descended. Java's
				// AtomicMarkableReference CAS carries the expected mark bit
				// and would fail on this slot; with ref-identity CASes we
				// must reject it explicitly, or a later CAS would link
				// through (and resurrect) a dead node.
				continue retry
			}
			cur := predRef.node
			for {
				curRef := cur.at(level).Load()
				for curRef.marked {
					// cur is logically deleted at this level: snip it.
					newRef := &fRef{node: curRef.node}
					if !pred.at(level).CompareAndSwap(predRef, newRef) {
						continue retry
					}
					predRef = newRef
					cur = curRef.node
					curRef = cur.at(level).Load()
				}
				if cur.key < key {
					pred = cur
					predRef = curRef
					cur = curRef.node
					continue
				}
				break
			}
			preds[level] = pred
			predRefs[level] = predRef
			succs[level] = cur
		}
		return succs[0].key == key
	}
}

// Search returns the value stored under key, if present. It never writes:
// marked nodes are skipped, not snipped.
func (s *Fraser) Search(key uint64) (uint64, bool) {
	ds.CheckKey(key)
	pred := s.head
	var cur *fNode
	for level := MaxLevel - 1; level >= 0; level-- {
		cur = pred.at(level).Load().node
		for {
			curRef := cur.at(level).Load()
			for curRef.marked {
				cur = curRef.node
				curRef = cur.at(level).Load()
			}
			if cur.key < key {
				pred = cur
				cur = curRef.node
				continue
			}
			break
		}
	}
	if cur.key == key {
		return cur.val, true
	}
	return 0, false
}

// Insert adds key→val if absent. The level-0 CAS is the linearization
// point; higher levels are linked afterwards, racing benignly with
// concurrent deletions of the new node.
func (s *Fraser) Insert(key, val uint64) bool {
	ds.CheckKey(key)
	topLevel := randomLevel()
	var preds, succs [MaxLevel]*fNode
	var predRefs [MaxLevel]*fRef
	for {
		if s.find(key, &preds, &succs, &predRefs) {
			return false
		}
		n := newFNode(key, val, topLevel)
		for level := 0; level < topLevel; level++ {
			n.at(level).Store(&fRef{node: succs[level]})
		}
		if !preds[0].at(0).CompareAndSwap(predRefs[0], &fRef{node: n}) {
			continue // lost the level-0 race; retry whole insert
		}
		// Link the higher levels.
		for level := 1; level < topLevel; level++ {
			for {
				nRef := n.at(level).Load()
				if nRef.marked {
					return true // n was deleted already; stop linking
				}
				succ := succs[level]
				if nRef.node != succ {
					// Refresh n's forward pointer to the latest successor.
					if !n.at(level).CompareAndSwap(nRef, &fRef{node: succ}) {
						continue // marked or changed under us; re-check
					}
				}
				if preds[level].at(level).CompareAndSwap(predRefs[level], &fRef{node: n}) {
					break
				}
				// Re-parse to refresh preds/succs for the remaining levels.
				if s.findForLink(key, n, &preds, &succs, &predRefs) {
					return true // n got deleted during the re-parse
				}
			}
		}
		return true
	}
}

// findForLink re-parses for the higher-level linking of n, reporting true
// when n has been logically deleted (no more linking should happen).
func (s *Fraser) findForLink(key uint64, n *fNode, preds, succs *[MaxLevel]*fNode, predRefs *[MaxLevel]*fRef) bool {
	s.find(key, preds, succs, predRefs)
	return n.at(0).Load().marked
}

// Delete removes key, returning its value, if present. Levels above 0 are
// marked top-down; the level-0 mark decides the race between concurrent
// deleters and is the linearization point.
func (s *Fraser) Delete(key uint64) (uint64, bool) {
	ds.CheckKey(key)
	var preds, succs [MaxLevel]*fNode
	var predRefs [MaxLevel]*fRef
	if !s.find(key, &preds, &succs, &predRefs) {
		return 0, false
	}
	victim := succs[0]
	// Mark the upper levels, top-down.
	for level := victim.topLevel - 1; level >= 1; level-- {
		for {
			ref := victim.at(level).Load()
			if ref.marked {
				break
			}
			victim.at(level).CompareAndSwap(ref, &fRef{node: ref.node, marked: true})
		}
	}
	// Level 0 decides ownership of the deletion.
	for {
		ref := victim.at(0).Load()
		if ref.marked {
			return 0, false // another deleter won
		}
		if victim.at(0).CompareAndSwap(ref, &fRef{node: ref.node, marked: true}) {
			s.find(key, &preds, &succs, &predRefs) // snip the carcass
			return victim.val, true
		}
	}
}

// Len counts unmarked level-0 elements (not linearizable).
func (s *Fraser) Len() int {
	n := 0
	for cur := s.head.at(0).Load().node; cur != s.tail; {
		ref := cur.at(0).Load()
		if !ref.marked {
			n++
		}
		cur = ref.node
	}
	return n
}
