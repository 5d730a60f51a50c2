// Package skiplist implements the concurrent skip lists of §5.3, under the
// graph keys of Figure 11:
//
//   - Herlihy ("herlihy"): the optimistic skip list of Herlihy et al. [29]
//     — per-node test-and-set locks, marked/fullyLinked flags, and
//     fine-grained validation inside the critical section.
//   - HerlihyOptik ("herl-optik"): the paper's optimization of Herlihy —
//     per-node OPTIK locks; when the lock acquires with an unchanged
//     version the fine-grained validation is skipped entirely.
//   - Fraser ("fraser"): the lock-free skip list of Fraser [15] (in the
//     formulation of Herlihy & Shavit), with per-level marked successor
//     records swapped by CAS.
//   - Optik1 / Optik2 ("optik1"/"optik2"): the paper's new OPTIK-based
//     skip list — parsing tracks one version per predecessor level, inserts
//     link eagerly level by level under single-CAS validate-and-lock, and
//     deletions acquire all predecessor locks before unlinking. Optik1
//     falls back to Herlihy-style fine-grained validation when a version
//     check fails; Optik2 restarts immediately (and is the more scalable
//     variant in the paper).
//
// All variants share the MaxLevel height cap, a geometric (p = 1/2) level
// generator and one node layout — a header followed by a tower of the
// node's own height, in one allocation (tower.go). Keys live in
// [ds.MinKey, ds.MaxKey]; sentinels use the two reserved values.
package skiplist

import (
	"math/bits"
	"sync/atomic"
	"unsafe"

	"github.com/optik-go/optik/internal/rng"
)

// MaxLevel is the tower height cap. 32 levels address 2^32 expected
// elements, far beyond the paper's largest workload (65536 elements).
const MaxLevel = 32

// levelCell is one slot of the level-draw generator table, padded so
// neighboring cells never share a cache line.
type levelCell struct {
	state atomic.Uint64
	_     [56]byte
}

// levelCells holds per-goroutine-flavored xorshift states for tower-height
// draws. math/rand/v2's global generator (the previous implementation)
// routes every draw through runtime locking plus a fallback path;
// enhancements.md of the related skiplist repo diagnoses exactly this —
// a shared RNG on the insert path — as the first scaling sin. Instead each
// draw steps a cell picked by the same stack-address probe qsbr.Pool uses
// for handle affinity: stable within a goroutine (8 KiB granularity, so
// differing call depths hash alike), spread across goroutines, no shared
// hot word. Two goroutines that do land on one cell race the
// load-step-store benignly: a lost update repeats a state, which skews
// nothing the geometric draw cares about, and the atomics keep it
// race-detector-clean.
var levelCells [64]levelCell

// randomLevel draws a tower height in [1, MaxLevel] from a geometric
// distribution with p = 1/2, from a per-goroutine-affine xorshift cell
// (the paper's per-thread PRNGs, without demanding a thread identity).
func randomLevel() int {
	var probe byte
	addr := uintptr(unsafe.Pointer(&probe))
	c := &levelCells[(addr>>13)&uintptr(len(levelCells)-1)]
	s := c.state.Load()
	if s == 0 {
		// First draw of this cell: seed from the stack address (always
		// non-zero after Step's zero repair), so cells start decorrelated.
		s = uint64(addr)
	}
	s = rng.Step(s)
	c.state.Store(s)
	// Trailing zeros of a uniform word are geometric(1/2); the OR caps the
	// height at MaxLevel.
	return bits.TrailingZeros64(rng.Mix(s)|1<<(MaxLevel-1)) + 1
}

const (
	headKey uint64 = 0
	tailKey uint64 = ^uint64(0)
)
