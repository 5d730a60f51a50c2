package skiplist

import (
	"fmt"
	"sync/atomic"
	"unsafe"
)

// Node layout, shared by all four node types (oNode, hoNode, hNode, fNode).
//
// A node is a fixed header followed, in the SAME allocation, by a tower of
// as many forward slots as the node has levels. A geometric p = 1/4 tower
// is 4/3 levels tall on average, so a [MaxLevel] array embedded in every
// node would spend most of its slots on levels no traversal reads; sized
// to the node behind a 24-byte header, a height-1 tower (three in four) is
// one 32-byte object and the mean allocation is ~36 bytes. Only head and
// tail are MaxLevel tall.
//
// The allocation is an exact Go type — towerNode[header, [h]slot] — rather
// than a header plus raw bytes, so the collector's pointer map covers every
// slot of the tower: successors reachable only through a tall node's upper
// levels stay alive with no help from the list. The node types hold only
// the header; a level is reached through the node's at(level) accessor,
// which is address arithmetic inside the object (header size + 8·level):
// no slice header, no second allocation, no dependent load beyond the one
// the embedded array cost.
//
// Invariant (docs/INVARIANTS.md): no traversal reads level >= a node's
// height. A node is linked at level l only if l < its height, and a
// traversal reaches a node at level l only through a level-l link. The
// checked build (-race, or the skiplistdebug tag) enforces it on every
// access: at panics on an out-of-tower level instead of reading the next
// object in the span. A tower is never reused, so the height behind an
// address is the one it was allocated with for as long as it is reachable.

// towerNode is the allocated shape of a node: header H, then tower T (an
// array of forward slots).
type towerNode[H, T any] struct {
	hdr   H
	tower T
}

// newTower allocates a zeroed header H followed by a tower of h forward
// slots of type atomic.Pointer[P], as one object, and returns the header.
// Heights 1–8 (all but one node in 65536 at p = 1/4) get exactly h slots;
// taller ones round up to MaxLevel, which keeps the set of allocated types
// small. h must be in [1, MaxLevel]; the caller records it in the header.
func newTower[H, P any](h int) *H {
	type slot = atomic.Pointer[P]
	switch h {
	case 1:
		return &new(towerNode[H, [1]slot]).hdr
	case 2:
		return &new(towerNode[H, [2]slot]).hdr
	case 3:
		return &new(towerNode[H, [3]slot]).hdr
	case 4:
		return &new(towerNode[H, [4]slot]).hdr
	case 5:
		return &new(towerNode[H, [5]slot]).hdr
	case 6:
		return &new(towerNode[H, [6]slot]).hdr
	case 7:
		return &new(towerNode[H, [7]slot]).hdr
	case 8:
		return &new(towerNode[H, [8]slot]).hdr
	case 9, 10, 11, 12, 13, 14, 15, MaxLevel:
		return &new(towerNode[H, [MaxLevel]slot]).hdr
	}
	panic("skiplist: tower height out of range")
}

// towerAt returns forward slot level of the node whose header is n. The
// slot's address comes from the allocated type itself (towerNode's field
// offset), not from an assumption about header padding. The caller checks
// the level against the node's height in the checked build.
func towerAt[H, P any](n *H, level int) *atomic.Pointer[P] {
	t := (*towerNode[H, [1]atomic.Pointer[P]])(unsafe.Pointer(n))
	return (*atomic.Pointer[P])(unsafe.Add(unsafe.Pointer(&t.tower), uintptr(level)*unsafe.Sizeof(t.tower[0])))
}

// checkLevel is the checked build's tower bounds check: every at(level)
// the suites make under `go test -race` (or the skiplistdebug tag) panics
// on a level outside the node's tower instead of reading past it. Each at
// calls it under `if checkedBuild`, so the other builds neither call it nor
// load the height it needs.
func checkLevel(level, height int) {
	if uint(level) >= uint(height) {
		panic(fmt.Sprintf("skiplist: tower access at level %d of a %d-level node", level, height))
	}
}

// The OPTIK nodes' (oNode, hoNode) tag byte: the top byte of the tower
// lock's word (core.TagMask) holds the node's flags and height, so a node's
// header is key, value word and lock word — 24 bytes — and any flag change
// is a version change of the lock that guards the tower.
const (
	// markedTag: logically deleted. Set by the deleter, holding the
	// tower's lock.
	markedTag uint64 = 1 << 56
	// linkedTag: every level is linked (herlihy's fullyLinked). Set once,
	// by the tower's inserter, after its last level.
	linkedTag uint64 = 1 << 57
	// heightShift: bits 58–63 hold the height, in [1, MaxLevel]. Written
	// before publication and never again.
	heightShift = 58
)

// heightTag encodes a tower height for the tag byte.
func heightTag(h int) uint64 { return uint64(h) << heightShift }

// Compile-time pins: the height fits its six bits, and each node header is
// exactly 24 bytes — the size the node layout and its allocation contract
// (TestTowerAllocSize) are built around.
const _ uint = 1<<(64-heightShift) - 1 - MaxLevel

var (
	_ [24 - unsafe.Sizeof(oNode[uint64]{})]struct{}
	_ [unsafe.Sizeof(oNode[uint64]{}) - 24]struct{}
	_ [24 - unsafe.Sizeof(hoNode{})]struct{}
	_ [unsafe.Sizeof(hoNode{}) - 24]struct{}
	_ [24 - unsafe.Sizeof(hNode{})]struct{}
	_ [unsafe.Sizeof(hNode{}) - 24]struct{}
	_ [24 - unsafe.Sizeof(fNode{})]struct{}
	_ [unsafe.Sizeof(fNode{}) - 24]struct{}
)
