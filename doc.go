// Package optik is a Go implementation of the OPTIK design pattern and the
// OPTIK-lock abstraction from:
//
//	Rachid Guerraoui and Vasileios Trigonakis.
//	Optimistic Concurrency with OPTIK. PPoPP 2016.
//
// OPTIK couples a version number with a lock at the same granularity. An
// operation (1) snapshots the version, (2) performs optimistic, read-only
// work, and (3) acquires the lock *and* validates the version in a single
// compare-and-swap (TryLockVersion). If the version moved, a conflicting
// critical section committed and the operation restarts — without ever
// having waited behind the lock. On success the critical section runs, and
// Unlock both publishes the new version and releases the lock.
//
// This package exposes the two OPTIK-lock implementations of the paper:
//
//   - Lock, built on versioned locks (one 64-bit counter, odd = locked); and
//   - TicketLock, built on ticket locks, which is fair and additionally
//     reports the queue length (NumQueued) for contention-adaptive designs
//     such as victim queues.
//
// The concurrent data structures built with OPTIK live in the ds/
// subpackages: ds/arraymap, ds/list, ds/hashmap, ds/skiplist, ds/queue and
// ds/stack. Each provides the paper's new OPTIK-based algorithms alongside
// the state-of-the-art baselines they are evaluated against (Harris and lazy
// lists, Herlihy and Fraser skip lists, Michael-Scott queues, a
// ConcurrentHashMap-style table, and a Treiber stack).
//
// Beyond the paper, ds/hashmap adds two cache-conscious tables built on a
// slab of 64-byte buckets that co-locate each bucket's OPTIK lock, chain
// head and a small inline key/value prefix, so the common operation touches
// exactly one cache line: hashmap.Slab (fixed capacity) and
// hashmap.Resizable, which resizes in both directions under load — growing
// past its load threshold and shrinking (never below its initial floor)
// when deletes drain it — with lock-free reads across the old/new slab
// pair and per-bucket OPTIK-validated incremental migration either way: a
// grow migrates one bucket at a time, a shrink merges each old bucket pair
// into its single half-table target under both buckets' OPTIK locks.
// Resizable also carries a full node-lifecycle subsystem in the spirit of
// the paper's ssmem: overflow-chain nodes are retired to a quiescent-state
// domain (internal/qsbr) on delete and migration and recycled by later
// inserts, with the OPTIK version validation — not reader announcements —
// keeping the lock-free readers safe against reuse (hashmap.SlabReuse
// isolates that ablation on the fixed table). Background maintenance is a
// shared subsystem (internal/maint): one Scheduler goroutine services any
// number of registered structures — a table joins by implementing the
// three-method Maintainer contract — watching each one's monotone
// operation counter for idleness (balanced insert/delete traffic still
// reads as active), quiescing the idle ones — migrations driven home,
// retired nodes swept — and backing its poll interval off exponentially
// while everything sleeps, so an abandoned oversized table registered on
// a scheduler returns to its floor and recycles its nodes with no caller
// involvement.
//
// The store package composes the pieces into a servable system, as one
// stack: a shard contract (point ops, per-shard batches, conditional
// delete, maintenance) satisfied by the Resizable table and by the OPTIK
// skip list; a router that is data (shard = min((key·mul)>>shift, last):
// the Fibonacci multiplier hashes, mul = 1 range-partitions); one index
// core over them (store.Store — upsert Set semantics, batched
// MGet/MSet/MDel that visit each touched shard once through a pooled
// scratch, aggregated statistics, the whole fleet serviced by one shared
// Scheduler), which store.Ordered specializes only by carrying
// Scan/Min/Max over sorted shards; and one string layer (store.Strings —
// a chunked atomic-handle arena whose reads validate a pair's hash
// against slot recycling, the OPTIK move lifted to the value layer, with
// per-entry TTL and byte-budget eviction), which store.SortedStrings
// specializes the same way. The server package puts that store on the
// network:
// a RESP-flavored pipelined TCP protocol served by cmd/optik-server and
// measured end to end by the repository's bench/ module.
// docs/ARCHITECTURE.md in the repository walks the full stack and
// tabulates, layer by layer, what is validated optimistically versus
// what is locked; docs/PROTOCOL.md specifies the wire format.
// The padding and striped-counter primitives behind them are reusable:
// Lock is complemented by cache-line-padded forms for dense lock arrays
// (internal/core's PaddedLock and PaddedTicketLock, internal/locks'
// PaddedTAS and PaddedTicket).
//
// # Minimal example
//
//	var l optik.Lock
//	for {
//		v := l.GetVersion()
//		// ... optimistic read-only work ...
//		if !l.TryLockVersion(v) {
//			continue // a conflicting update committed; retry
//		}
//		// ... critical section ...
//		l.Unlock()
//		break
//	}
package optik
