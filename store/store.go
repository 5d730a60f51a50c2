// Package store lifts the library's concurrent structures into a servable
// subsystem, as one stack with one body per behaviour:
//
//	shard contract   what a shard must do: point ops, per-shard batches,
//	                 conditional delete and replace, sampling and
//	                 sweeping, maintenance. Two structures satisfy it —
//	                 the resizable OPTIK hash table as is, and the OPTIK
//	                 skip list plus a striped counter (ordered.go), which
//	                 additionally scans in key order. Both are generic
//	                 over the value word: uint64 for the index stores,
//	                 *pair for the string layer.
//	router           data, not code: shard = min((key·mul)>>shift, last).
//	                 The Fibonacci multiplier gives the hash router, mul=1
//	                 the range partition.
//	index core       Store: shards behind the router, one route → gather →
//	                 shard-batch → scatter helper under every multi-key
//	                 call, store-wide aggregation, one shared maintenance
//	                 scheduler. Ordered is the same core over sorted
//	                 shards, and is the type that carries Scan/Min/Max.
//	string layer     Strings (values.go, ttl.go): immutable value pairs
//	                 held by the index itself — a read is one hop from
//	                 key to value — with per-entry TTL and byte-budget
//	                 eviction. SortedStrings is the same layer over an
//	                 Ordered index.
//
// Sharding is the classic route from a fast structure to a served system
// (lock striping over optimistic structures — the design behind the
// paper's ConcurrentHashMap baseline, scaled out): each shard owns its
// locks, its striped counter and its qsbr reclamation pool (and, for the
// tables, its incremental resize machinery), so shards never contend on
// anything — no shared counter cell, no shared migration cursor, no
// shared free list. A resize migrates one shard's buckets while the other
// shards serve traffic untouched, which bounds the tail a resize can
// inflict on the store as a whole.
//
// The fleet shares exactly one piece of infrastructure: the maintenance
// scheduler (internal/maint). One goroutine samples every shard's
// activity, quiesces the idle ones, and backs its poll interval off
// exponentially while the whole fleet sleeps — the store costs one
// goroutine and one timer at any shard count.
//
// Batched operations (MGet, MSet, MDel) route each key to its shard and
// then visit each touched shard once, so the per-operation overheads —
// borrowing a reclamation handle, offering migration help — are paid per
// shard visit instead of per key. Each key remains an independent
// linearizable operation; a batch is a loop with the fixed costs hoisted,
// not a transaction.
package store

import (
	"math/bits"
	"runtime"
	"sync"
	"time"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/ds/hashmap"
	"github.com/optik-go/optik/internal/maint"
	"github.com/optik-go/optik/internal/rng"
)

// shard is the contract one partition of the index satisfies, over value
// word V. Everything above it — routing, batching, the value layer's
// expiry and eviction — is written once against this surface;
// *hashmap.Resizable implements it as is, *orderedShard wraps the skip
// list to do so. Both are pointer-shaped, so a shard visit costs one itab
// call and the per-key work behind it is the structure's own.
type shard[V comparable] interface {
	maint.Maintainer
	Search(key uint64) (V, bool)
	Insert(key uint64, val V) bool
	Upsert(key uint64, val V) (old V, replaced bool)
	Delete(key uint64) (V, bool)
	// DeleteIfValue removes key only while it maps to exactly val, and
	// ReplaceIfValue swaps its value from exactly old to new: the
	// conditional updates of a caller that sampled the entry without a
	// lock, checked under the lock that owns it.
	DeleteIfValue(key uint64, val V) bool
	ReplaceIfValue(key uint64, old, new V) bool
	// The batch forms apply the scalar operation to every key in order
	// under one reclamation handle; the result slices are at least
	// len(keys) long, the int is the fresh-insert / hit count.
	SearchBatch(keys []uint64, vals []V, found []bool)
	UpsertBatchEach(keys []uint64, vals, old []V, replaced []bool) int
	DeleteBatchEach(keys []uint64, old []V, found []bool) int
	// Sample reports up to hashmap.SampleWidth entries around a position
	// rnd chooses (none, for a probe that found nothing), by value: a
	// caller's sampling loop allocates nothing. Sweep copies the entries
	// from cursor on into keys/vals and returns the cursor to resume from,
	// 0 at the end of a lap that visits every entry present throughout at
	// least once. The string layer's eviction and expiry sweep enumerate
	// the index with these two.
	Sample(rnd uint64) (keys [hashmap.SampleWidth]uint64, vals [hashmap.SampleWidth]V, n int)
	Sweep(cursor uint64, keys []uint64, vals []V) (n int, next uint64)
	Len() int
	ReclaimStats() (retired, reclaimed, reused uint64)
	Quiesce()
}

// Store is a sharded key-value index over uint64 keys and values: the
// hash-routed form New builds, and the core every other type in the
// package is made of. All methods are safe for concurrent use. Keys follow
// the library's range ([ds.MinKey, ds.MaxKey]); values are unrestricted.
// The value word V is uint64 for every store a caller builds; the string
// layer builds its own index over *pair.
type Store[V comparable] struct {
	shards []shard[V]
	// The router: shard = min((key*mul)>>shift, last). With the Fibonacci
	// multiplier it consumes the hash's top bits (the shard tables place
	// buckets by bits 32 and up of the same product, so a route and a
	// bucket index never alias for any sane shard × bucket count); with
	// mul = 1 it is a range partition, and the clamp absorbs keys above
	// the declared ceiling and a ceiling that is no multiple of the shard
	// count. A shift of 64 (one shard) routes everything to shard 0.
	mul   uint64
	shift uint
	last  uint64
	sched *maint.Scheduler
	// scratch pools the batch routing state (see batchScratch).
	scratch *sync.Pool
}

var _ ds.Set = (*Store[uint64])(nil)

// maxShards bounds the shard count (and so the batch router's boundary
// table).
const maxShards = 256

// fibMul is the Fibonacci multiplicative hash constant the hash router
// shares with the shard tables' bucket placement.
const fibMul = 0x9E3779B97F4A7C15

// options collects construction knobs; see the Option helpers.
type options struct {
	shards       int
	shardBuckets int
	interval     time.Duration
	maintenance  bool
	// keyMax bounds the range partition of the ordered constructors (see
	// WithKeyMax); the hash-routed ones ignore it.
	keyMax uint64
	// clock and byteBudget configure the string layer's memory governance
	// (see WithClock/WithByteBudget and ttl.go); the index-only
	// constructors ignore them.
	clock      func() int64
	byteBudget int64
}

// Option configures the constructors.
type Option func(*options)

// WithShards sets the shard count, rounded up to a power of two and
// capped at 256. The default is the next power of two >= GOMAXPROCS —
// one shard per core's worth of traffic.
func WithShards(n int) Option {
	return func(o *options) { o.shards = n }
}

// WithShardBuckets sets each hash shard's initial (and floor) bucket
// count; the default is 1024. A shard never shrinks below its floor, so
// this is the provisioned per-shard size. Sorted shards have no buckets.
func WithShardBuckets(n int) Option {
	return func(o *options) { o.shardBuckets = n }
}

// WithMaintenanceInterval sets the shared scheduler's base poll interval
// (default maint.DefaultInterval; it backs off exponentially while the
// fleet idles).
func WithMaintenanceInterval(d time.Duration) Option {
	return func(o *options) { o.interval = d }
}

// WithoutMaintenance builds the store with no background scheduler: the
// caller owns quiescence (Quiesce). Benchmarks isolating the data path
// use this.
func WithoutMaintenance() Option {
	return func(o *options) { o.maintenance = false }
}

// WithClock injects the nanosecond clock the string layer's TTL machinery
// reads. The default is a coarse time.Now cached per maintenance pass and
// refreshed by TTL-setting operations; tests inject a clock they advance
// by hand, so every expiry behavior reproduces deterministically — no
// sleeps.
func WithClock(now func() int64) Option {
	return func(o *options) { o.clock = now }
}

// WithByteBudget bounds the string layer's approximate live footprint:
// when bytes_used exceeds n, the maintenance pass evicts sampled entries —
// the least often used first, the longest untouched among equals — until
// back under. 0 (the default) means unbounded. The budget
// governs bytes, not elements — the store sheds a few large values or
// many small ones alike.
func WithByteBudget(n int64) Option {
	return func(o *options) { o.byteBudget = n }
}

// newOptions applies opts over the defaults and settles the shard count.
func newOptions(opts []Option) options {
	o := options{shardBuckets: 1024, maintenance: true, keyMax: ds.MaxKey}
	for _, opt := range opts {
		opt(&o)
	}
	if o.shards <= 0 {
		o.shards = runtime.GOMAXPROCS(0)
	}
	n := 1
	for n < o.shards && n < maxShards {
		n <<= 1
	}
	o.shards = n
	return o
}

// newStore assembles the index core: o.shards shards from newShard behind
// the (mul, shift) router, every shard registered on one shared
// maintenance scheduler unless o says otherwise.
func newStore[V comparable](o options, mul uint64, shift uint, newShard func() shard[V]) Store[V] {
	s := Store[V]{
		shards:  make([]shard[V], o.shards),
		mul:     mul,
		shift:   shift,
		last:    uint64(o.shards - 1),
		scratch: &sync.Pool{New: func() any { return new(batchScratch[V]) }},
	}
	for i := range s.shards {
		s.shards[i] = newShard()
	}
	if o.maintenance {
		s.sched = maint.NewScheduler(o.interval)
		for _, sh := range s.shards {
			s.sched.Register(sh)
		}
	}
	return s
}

// New returns a hash-routed Store over resizable OPTIK hash tables, every
// shard registered on one shared maintenance scheduler (unless
// WithoutMaintenance). Close releases the scheduler goroutine.
func New(opts ...Option) *Store[uint64] { return newHashed[uint64](newOptions(opts)) }

// newHashed is New over any value word.
func newHashed[V comparable](o options) *Store[V] {
	s := newStore(o, fibMul, uint(64-bits.TrailingZeros(uint(o.shards))),
		func() shard[V] { return hashmap.NewResizableOf[V](o.shardBuckets) })
	return &s
}

// Close stops the shared maintenance scheduler. The shards stay usable —
// migration still advances on updates and Quiesce still works — they just
// get no background attention. Idempotent.
func (s *Store[V]) Close() {
	if s.sched != nil {
		s.sched.Stop()
	}
}

// shardID routes a key to its shard.
func (s *Store[V]) shardID(key uint64) uint64 {
	return min(key*s.mul>>s.shift, s.last)
}

// Get returns the value stored under key, if present. Lock-free, like the
// shard's Search.
func (s *Store[V]) Get(key uint64) (V, bool) {
	return s.shards[s.shardID(key)].Search(key)
}

// Set stores key→val, inserting or replacing in place, and returns the
// previous value and whether one was replaced — the upsert a serving store
// needs (contrast Insert, the paper's set semantics).
func (s *Store[V]) Set(key uint64, val V) (V, bool) {
	return s.shards[s.shardID(key)].Upsert(key, val)
}

// Del removes key, returning its value, if present.
func (s *Store[V]) Del(key uint64) (V, bool) {
	return s.shards[s.shardID(key)].Delete(key)
}

// DelIfValue removes key only while it still maps to exactly val, checked
// under the lock owning the entry (the table's bucket lock, the skip
// list's tower lock). The value layer's expiry/eviction retirement uses it
// to splice out exactly the pair it judged dead, never a successor.
func (s *Store[V]) DelIfValue(key uint64, val V) bool {
	return s.shards[s.shardID(key)].DeleteIfValue(key, val)
}

// ReplaceIfValue swaps key's value from exactly old to new under the same
// lock, reporting whether it did: the value layer's Expire and Persist
// install a re-armed pair only over the one they read.
func (s *Store[V]) ReplaceIfValue(key uint64, old, new V) bool {
	return s.shards[s.shardID(key)].ReplaceIfValue(key, old, new)
}

// sample probes the shard rnd's top bits choose (see shard.Sample) at a
// position drawn from rnd remixed, so that the bits that chose the shard
// do not also fix part of the position within it.
func (s *Store[V]) sample(rnd uint64) ([hashmap.SampleWidth]uint64, [hashmap.SampleWidth]V, int) {
	return s.shards[rnd>>56&s.last].Sample(rng.Mix(rnd))
}

// Search implements ds.Set (alias of Get), so the workload drivers and
// stress harness run against a Store unchanged.
func (s *Store[V]) Search(key uint64) (V, bool) { return s.Get(key) }

// Insert implements ds.Set: strict insert-if-absent.
func (s *Store[V]) Insert(key uint64, val V) bool {
	return s.shards[s.shardID(key)].Insert(key, val)
}

// Delete implements ds.Set (alias of Del).
func (s *Store[V]) Delete(key uint64) (V, bool) { return s.Del(key) }

// Len sums the shard counts: O(shards × counter stripes), independent of
// the element count. Same non-linearizable contract as every Len in the
// library.
func (s *Store[V]) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Shards returns the shard count.
func (s *Store[V]) Shards() int { return len(s.shards) }

// resizer is the monitoring surface of shards that resize (the hash
// tables); a store of sorted shards reads 0 for both.
type resizer interface {
	Buckets() int
	Resizes() int
}

// Buckets sums the shards' current bucket counts (racy; for monitoring).
func (s *Store[V]) Buckets() int {
	n := 0
	for _, sh := range s.shards {
		if r, ok := sh.(resizer); ok {
			n += r.Buckets()
		}
	}
	return n
}

// Resizes sums the shards' lifetime resize counts (racy; for monitoring).
func (s *Store[V]) Resizes() int {
	n := 0
	for _, sh := range s.shards {
		if r, ok := sh.(resizer); ok {
			n += r.Resizes()
		}
	}
	return n
}

// ReclaimStats sums the shards' index-node reclamation counters — chain
// nodes of the tables, towers of the skip lists (racy snapshot; for
// monitoring).
func (s *Store[V]) ReclaimStats() (retired, reclaimed, reused uint64) {
	for _, sh := range s.shards {
		a, b, c := sh.ReclaimStats()
		retired += a
		reclaimed += b
		reused += c
	}
	return retired, reclaimed, reused
}

// Quiesce drives every shard's maintenance home: in-flight migrations
// completed, pending resizes settled, retired nodes swept onto the free
// lists. Operators normally never call it — the shared scheduler does —
// but workload phase transitions and tests want the determinism.
func (s *Store[V]) Quiesce() {
	for _, sh := range s.shards {
		sh.Quiesce()
	}
}

// batchOp names the shard batch a multi-key call drives.
type batchOp uint8

const (
	opSearch batchOp = iota
	opUpsert
	opDelete
)

// run applies op to one shard: the single itab call of a shard visit.
func run[V comparable](op batchOp, sh shard[V], keys []uint64, in, out []V, flags []bool) int {
	switch op {
	case opSearch:
		sh.SearchBatch(keys, out, flags)
		return 0
	case opUpsert:
		return sh.UpsertBatchEach(keys, in, out, flags)
	default:
		return sh.DeleteBatchEach(keys, out, flags)
	}
}

// batchScratch is the reusable routing state of one batched call: the
// keys (and inputs) regrouped by shard, the shard batches' results in the
// same grouped order, each key's position in that order, and the shard
// boundaries. Batches borrow one from the store's pool — under a steady
// per-goroutine batch rate the same goroutine gets its scratch back
// (sync.Pool is per-P) — so large batches route allocation-free. The value
// slots are cleared before the scratch goes back, so a pooled scratch
// holds no pointer word alive.
type batchScratch[V any] struct {
	keys    []uint64
	in, out []V
	flags   []bool
	pos     []int32
	bound   [maxShards + 1]int32
}

// batch is the one body under every multi-key call: op applied to every
// key, each touched shard visited exactly once. in carries the per-key
// input (values to store; nil otherwise); out and flags receive the
// per-key results (value found / replaced / removed, and whether there was
// one) and may both be nil when the caller wants only the returned count
// of fresh inserts or hits. With one shard — and a caller-supplied result
// space — the call goes straight to the shard batch. Otherwise the keys
// are regrouped by shard with a counting sort (route and count, prefix-sum
// the shard boundaries, route again and place), each non-empty group runs
// as one shard batch, and the results scatter back through the recorded
// positions: O(len(keys) + shards), no data-dependent branch per key. The
// sort is stable and a duplicate key always routes to the same shard, so
// within a shard keys apply in arrival order and duplicates behave exactly
// as the sequential scalar calls would.
func (s *Store[V]) batch(op batchOp, keys []uint64, in, out []V, flags []bool) int {
	single := len(s.shards) == 1
	if single && out != nil {
		return run(op, s.shards[0], keys, in, out, flags)
	}
	n := len(keys)
	sc := s.scratch.Get().(*batchScratch[V])
	defer s.putScratch(sc, n)
	if cap(sc.keys) < n {
		sc.keys, sc.in, sc.out = make([]uint64, n), make([]V, n), make([]V, n)
		sc.flags, sc.pos = make([]bool, n), make([]int32, n)
	}
	if single {
		return run(op, s.shards[0], keys, in, sc.out[:n], sc.flags[:n])
	}
	// bound[id] counts up from shard id's first position to its end as the
	// keys are placed; bound[len(shards)] absorbs the counting pass's +1
	// offset.
	bound := sc.bound[:len(s.shards)+1]
	clear(bound)
	for _, k := range keys {
		bound[s.shardID(k)+1]++
	}
	for id := 1; id < len(bound); id++ {
		bound[id] += bound[id-1]
	}
	pos := sc.pos[:n]
	for i, k := range keys {
		id := s.shardID(k)
		p := bound[id]
		bound[id] = p + 1
		pos[i] = p
		sc.keys[p] = k
		if in != nil {
			sc.in[p] = in[i]
		}
	}
	total, lo := 0, int32(0)
	for id, sh := range s.shards {
		if hi := bound[id]; hi > lo {
			total += run(op, sh, sc.keys[lo:hi], sc.in[lo:hi], sc.out[lo:hi], sc.flags[lo:hi])
			lo = hi
		}
	}
	if out != nil {
		for i, p := range pos {
			out[i], flags[i] = sc.out[p], sc.flags[p]
		}
	}
	return total
}

// putScratch returns a batch's scratch to the pool with its first n value
// slots cleared.
func (s *Store[V]) putScratch(sc *batchScratch[V], n int) {
	clear(sc.in[:n])
	clear(sc.out[:n])
	s.scratch.Put(sc)
}

// MGet looks up every keys[i], storing the value into vals[i] and
// presence into found[i]; vals and found must be at least len(keys) long.
func (s *Store[V]) MGet(keys []uint64, vals []V, found []bool) {
	s.batch(opSearch, keys, nil, vals, found)
}

// MSet applies Set(keys[i], vals[i]) for every i, returning how many keys
// were newly inserted.
func (s *Store[V]) MSet(keys []uint64, vals []V) int {
	return s.batch(opUpsert, keys, vals, nil, nil)
}

// MSetEach is MSet with per-key results: old[i] receives the value
// keys[i] replaced and replaced[i] whether one existed; the return value
// still counts fresh inserts. old and replaced must be at least
// len(keys) long. The value layer and the server's pipelined SET replies
// both need the per-key outcomes, which plain MSet folds away.
func (s *Store[V]) MSetEach(keys []uint64, vals, old []V, replaced []bool) int {
	return s.batch(opUpsert, keys, vals, old, replaced)
}

// MDel deletes every key, returning how many were present.
func (s *Store[V]) MDel(keys []uint64) int {
	return s.batch(opDelete, keys, nil, nil, nil)
}

// MDelEach is MDel with per-key results: old[i] receives the removed
// value and found[i] whether keys[i] was present; the return value still
// counts hits. old and found must be at least len(keys) long.
func (s *Store[V]) MDelEach(keys []uint64, old []V, found []bool) int {
	return s.batch(opDelete, keys, nil, old, found)
}
