package skiplist

import (
	"sync/atomic"
	"unsafe"
)

// Node layout, shared by all four node types (oNode, hoNode, hNode, fNode).
//
// A node is a fixed header followed, in the SAME allocation, by a tower of
// as many forward slots as the node has levels. A geometric p = 1/2 tower
// is two levels tall on average, so embedding a [MaxLevel] array in every
// node (the previous layout: 296 bytes, a 320-byte size class) spent ~250
// bytes per key on slots no traversal ever reads; sized to the node, the
// mean allocation is under 64 bytes. Only head and tail are MaxLevel tall.
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
// object in the span. On the pooled list a recycled tower keeps the height
// it was born with (see allocONode), so the tower behind an address never
// changes size across lives either.

// towerNode is the allocated shape of a node: header H, then tower T (an
// array of forward slots).
type towerNode[H, T any] struct {
	hdr   H
	tower T
}

// newTower allocates a zeroed header H followed by a tower of h forward
// slots of type atomic.Pointer[P], as one object, and returns the header.
// Heights 1–8 (255 nodes in 256) get exactly h slots; taller ones round up
// to 12, 16, 24 or MaxLevel, which keeps the set of allocated types small.
// h must be in [1, MaxLevel]; the caller records it in the header.
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
	case 9, 10, 11, 12:
		return &new(towerNode[H, [12]slot]).hdr
	case 13, 14, 15, 16:
		return &new(towerNode[H, [16]slot]).hdr
	case 17, 18, 19, 20, 21, 22, 23, 24:
		return &new(towerNode[H, [24]slot]).hdr
	case 25, 26, 27, 28, 29, 30, 31, MaxLevel:
		return &new(towerNode[H, [MaxLevel]slot]).hdr
	}
	panic("skiplist: tower height out of range")
}

// towerAt returns forward slot level of the node whose header is n and
// whose height is height. The slot's address comes from the allocated type
// itself (towerNode's field offset), not from an assumption about header
// padding.
func towerAt[H, P any](n *H, height, level int) *atomic.Pointer[P] {
	checkLevel(level, height)
	t := (*towerNode[H, [1]atomic.Pointer[P]])(unsafe.Pointer(n))
	return (*atomic.Pointer[P])(unsafe.Add(unsafe.Pointer(&t.tower), uintptr(level)*unsafe.Sizeof(t.tower[0])))
}
