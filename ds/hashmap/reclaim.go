package hashmap

import "github.com/optik-go/optik/internal/qsbr"

// This file is the glue between Resizable and the quiescent-state
// reclamation of internal/qsbr (the Go port of ssmem, the allocator under
// the paper's C structures, §3.3). Overflow-chain nodes come from a
// per-table qsbr pool and go back to it when an unlink or a migration
// makes them unreachable, so steady-state churn recycles nodes instead of
// re-allocating them.
//
// The protection story is deliberately NOT the classic "readers announce
// quiescent states" one — Resizable's readers are arbitrary goroutines
// that never register anywhere, and keeping reads lock-free and
// announcement-free is the point of the OPTIK design. Instead:
//
//   - Correctness is carried by version validation. A node can only leave
//     a bucket through a critical section on that bucket's OPTIK lock (a
//     chain delete or a migration), which bumps the bucket version. Any
//     optimistic scan that overlapped the retirement therefore fails its
//     validation — the chain-hit, miss, and update paths all re-check the
//     version before trusting anything they read — and restarts. A
//     recycled node's fields are atomics, so the doomed reads are
//     well-defined; they are discarded, never returned.
//   - The qsbr epochs are the recycling machinery: per-handle retire
//     lists, amortized sweeps, free-list-first allocation — ssmem's shape,
//     with writers (the only parties that retire or allocate) borrowing
//     handles from a qsbr.Pool for the node-touching part of an operation.
//
// The split mirrors the paper's decoupling claim: the concurrency control
// (OPTIK validation) does not care which reclamation scheme runs under it.
//
// The lifecycle carrier itself (lazy handle borrow, alloc/retire/release)
// is qsbr.Reclaimer, shared with the skip-list shards behind
// store.Ordered — exactly one node-lifecycle implementation exists. This
// alias keeps the table code on the short local name; the only
// table-shaped part left here is the typed allocation helper below.
type reclaimer = qsbr.Reclaimer

// allocNode returns a chain node: recycled from the qsbr free list when
// one is available, freshly allocated otherwise. The caller owns the node
// until it links it; stale readers from the node's previous life may
// still scan it, which is why the caller must store key/val/next through
// the atomics before linking. A recycled node arrives with its value word
// already cleared (node.Clear), so a free list pins no values.
func allocNode[V any](rc *reclaimer) *node[V] {
	if v := rc.Alloc(); v != nil {
		return v.(*node[V])
	}
	return new(node[V])
}
