package core

import (
	"runtime"
	"sync/atomic"
)

// Striped is a sharded counter for hot add paths: increments go to one of
// several cache-line-padded cells selected by a caller-supplied hint, and
// reading the total sums the cells. A single shared counter word would make
// every successful update of a large concurrent structure serialize on one
// cache line; striping spreads that traffic, and Sum stays O(shards) —
// constant in the element count — which is what makes a cheap Len() on a
// million-element table possible.
//
// Sum is not linearizable with respect to concurrent Adds (it reads the
// cells one by one); on a quiescent counter it is exact, matching the
// contract of the Len methods it backs.
type Striped struct {
	noCopy noCopy
	cells  []stripedCell
	mask   uint64
}

// stripedCell pads each counter word to a private cache line so concurrent
// Adds to different shards never false-share.
type stripedCell struct {
	n atomic.Int64
	_ CacheLinePad
}

// NewStriped returns a striped counter with at least the given number of
// cells, rounded up to a power of two. shards <= 0 sizes the counter to the
// machine (next power of two >= GOMAXPROCS).
func NewStriped(shards int) *Striped {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	return &Striped{cells: make([]stripedCell, n), mask: uint64(n - 1)}
}

// Add applies delta to the cell selected by hint and returns that cell's
// new value (useful for amortized threshold checks: act when the cell value
// crosses a boundary, not on every call). The hint is typically a key hash;
// any well-spread value works.
func (s *Striped) Add(hint uint64, delta int64) int64 {
	// Fibonacci-mix the hint so dense hint sequences still spread.
	return s.cells[(hint*0x9E3779B97F4A7C15)>>32&s.mask].n.Add(delta)
}

// Sum returns the total across all cells: O(shards), independent of how
// many Adds ever happened.
func (s *Striped) Sum() int64 {
	var total int64
	for i := range s.cells {
		total += s.cells[i].n.Load()
	}
	return total
}

// The op-counting view: AddOp/Net/Ops treat each cell as two packed
// counters updated by a single atomic add — a net element delta in the low
// 32 bits and a monotone operation count in the high bits. The op count is
// what a maintenance scheduler needs for its activity signal: the net sum
// is blind to balanced traffic (an insert and a delete cancel), but every
// successful update bumps the op half, so "no ops since the last sample"
// really means the structure was untouched. Packing it into the same add
// makes the sharper signal free — no second atomic on the update path.
//
// A counter must use either Add/Sum or AddOp/Net/Ops exclusively; mixing
// the flavors on one instance would misattribute the high bits. The packed
// layout bounds the net count to ±2^31 (about 2.1 billion elements, far
// beyond any table here). The op half wraps modulo 2^31 without disturbing
// the low half — two's-complement addition is bitwise modular — so Net
// stays exact forever and Ops comparisons remain valid across any sampling
// interval shorter than 2^31 operations.

// opsUnit is one operation in the packed cell encoding.
const opsUnit = int64(1) << 32

// AddOp records one successful operation whose net element effect is delta
// (+1 insert, -1 delete, 0 value update) and returns the updated cell's op
// count — callers amortize threshold checks on it crossing boundaries,
// which, unlike the raw cell value, advances deterministically under
// balanced traffic.
func (s *Striped) AddOp(hint uint64, delta int64) int64 {
	c := s.cells[(hint*0x9E3779B97F4A7C15)>>32&s.mask].n.Add(opsUnit + delta)
	return cellOps(c)
}

// Net returns the total net delta across all cells (the element count when
// the counter backs a Len). Same non-linearizable contract as Sum.
func (s *Striped) Net() int64 {
	return int64(int32(s.packedSum()))
}

// Ops returns the monotone operation count across all cells, modulo 2^31.
// Two equal Ops reads with no interleaving wrap mean no AddOp ran between
// them; its only consumer compares snapshots, so the wrap is harmless.
func (s *Striped) Ops() int64 {
	return cellOps(s.packedSum())
}

// packedSum sums the packed cells; the low 32 bits are the exact net total
// (assuming |net| < 2^31) and the remaining bits the wrapping op count.
func (s *Striped) packedSum() int64 {
	var total int64
	for i := range s.cells {
		total += s.cells[i].n.Load()
	}
	return total
}

// cellOps extracts the op half of a packed value: subtract the
// sign-extended net so a transiently negative low half does not leak its
// borrow into the count, then shift it out. Masked to 31 bits so the
// extraction is insensitive to op-half wraparound of the int64.
func cellOps(c int64) int64 {
	return (c - int64(int32(c))) >> 32 & (1<<31 - 1)
}

// Cells returns the number of cells.
func (s *Striped) Cells() int { return len(s.cells) }
