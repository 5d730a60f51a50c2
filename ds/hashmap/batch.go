package hashmap

import "github.com/optik-go/optik/ds"

// Batch entry points: the same per-key operations as Search/Upsert/Delete,
// with the per-operation overhead hoisted out of the loop. A scalar update
// borrows a qsbr handle and offers migration help once per call; a batch
// pays both once for the whole slice. The sharded store's MGet/MSet/MDel
// route a request's keys to their shards and drive these per shard, so the
// fixed cost of touching a shard is amortized over every key that landed
// on it. Each key remains its own linearizable operation — a batch is a
// loop, not a transaction.

// SearchBatch looks up every keys[i], storing the value into vals[i] and
// presence into found[i]. vals and found must be at least len(keys) long.
func (r *Resizable[V]) SearchBatch(keys []uint64, vals []V, found []bool) {
	for i, k := range keys {
		vals[i], found[i] = r.Search(k)
	}
}

// UpsertBatch applies Upsert(keys[i], vals[i]) for every i under one
// reclamation handle and returns how many keys were newly inserted (the
// rest replaced existing values).
func (r *Resizable[V]) UpsertBatch(keys []uint64, vals []V) int {
	for _, k := range keys {
		ds.CheckKey(k)
	}
	rc := reclaimer{Pool: r.pool}
	defer rc.Release()
	r.help(&rc)
	inserted := 0
	for i, k := range keys {
		if _, replaced := r.upsert(&rc, k, vals[i]); !replaced {
			inserted++
		}
	}
	return inserted
}

// UpsertBatchEach is UpsertBatch with per-key results: old[i] receives
// the value keys[i] replaced and replaced[i] whether one existed. The
// sharded store's value layer needs the per-key outcomes — every
// replaced value is one whose bytes it must credit back — and the network
// server needs them to frame one reply per pipelined SET. old and
// replaced must be at least len(keys) long. Keys are applied in order,
// so duplicates within a batch behave exactly as sequential Upserts.
func (r *Resizable[V]) UpsertBatchEach(keys []uint64, vals, old []V, replaced []bool) int {
	for _, k := range keys {
		ds.CheckKey(k)
	}
	rc := reclaimer{Pool: r.pool}
	defer rc.Release()
	r.help(&rc)
	inserted := 0
	for i, k := range keys {
		old[i], replaced[i] = r.upsert(&rc, k, vals[i])
		if !replaced[i] {
			inserted++
		}
	}
	return inserted
}

// DeleteBatch deletes every key under one reclamation handle and returns
// how many were present.
func (r *Resizable[V]) DeleteBatch(keys []uint64) int {
	for _, k := range keys {
		ds.CheckKey(k)
	}
	rc := reclaimer{Pool: r.pool}
	defer rc.Release()
	r.help(&rc)
	deleted := 0
	var zero V
	for _, k := range keys {
		if _, ok := r.delete(&rc, k, false, zero); ok {
			deleted++
		}
	}
	return deleted
}

// DeleteBatchEach is DeleteBatch with per-key results: old[i] receives
// the removed value and found[i] whether keys[i] was present, under one
// reclamation handle. old and found must be at least len(keys) long.
// Keys are applied in order, so a duplicate deletes once and then
// misses, exactly as sequential Deletes would.
func (r *Resizable[V]) DeleteBatchEach(keys []uint64, old []V, found []bool) int {
	for _, k := range keys {
		ds.CheckKey(k)
	}
	rc := reclaimer{Pool: r.pool}
	defer rc.Release()
	r.help(&rc)
	deleted := 0
	var zero V
	for i, k := range keys {
		old[i], found[i] = r.delete(&rc, k, false, zero)
		if found[i] {
			deleted++
		}
	}
	return deleted
}
