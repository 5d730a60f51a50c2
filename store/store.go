// Package store lifts the library's concurrent structures into a servable
// subsystem, as one stack with one body per behaviour:
//
//	shard contract   what a shard must do: point ops (one write body,
//	                 which builds its value only if it stores),
//	                 conditional delete and replace, sampling and
//	                 sweeping, maintenance. Two structures satisfy it — the
//	                 resizable OPTIK hash table as is, and the OPTIK
//	                 skip list plus a striped counter (ordered.go), which
//	                 additionally scans in key order. Both are generic
//	                 over the value word: uint64 for the index stores,
//	                 *pair for the string layer.
//	index core       Store: one shard, multi-key calls that loop over
//	                 the point ops, monitoring counts, and a
//	                 maintenance scheduler when there is something to
//	                 maintain. New builds it over one
//	                 resizable hash table, whose contention is per
//	                 bucket; Ordered is the same core over one skip
//	                 list, whose contention is per tower, and is the
//	                 type that carries Scan/Min/Max.
//	string layer     Strings (values.go, ttl.go): immutable value pairs
//	                 held by the index itself — a read is one hop from
//	                 key to value — with per-entry TTL and byte-budget
//	                 eviction. SortedStrings is the same layer over an
//	                 Ordered index.
//
// A store is one structure, not a striped fleet of them: the OPTIK table
// already takes one lock per bucket and the skip list one per tower, so
// two writers conflict only on the same bucket or tower, and a router
// over several structures would split no conflict the structure does not
// split already. The table's counter is striped and its resize is
// incremental — every update migrates a bounded number of buckets — so a
// resize never stops the store. One maintenance scheduler
// (internal/maint), given the table and the string layer's governance
// pass when the store is built, samples their activity, quiesces the
// table when idle, and backs its poll interval off exponentially while
// they sleep; a bare ordered store has nothing to maintain and starts
// none.
//
// Batched operations (MGet, MSet, MDel) are loops over Get, Set and Del:
// each key is applied on its own, one indirect shard call per key, in
// arrival order, so duplicates behave exactly as the sequential scalar
// calls would. The writes check every key before they apply any.
// Each key remains an independent linearizable operation; a batch is a
// loop, not a transaction.
package store

import (
	"time"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/ds/hashmap"
	"github.com/optik-go/optik/internal/maint"
	"github.com/optik-go/optik/internal/rng"
)

// shard is the contract the structure under a store satisfies, over value
// word V. Everything above it — the index core, the value layer's expiry
// and eviction — is written once against this surface; *hashmap.Resizable
// implements it as is, *orderedShard wraps the skip list to do so. Both
// are pointer-shaped, so a key's visit costs one itab call and the work
// behind it is the structure's own.
type shard[V comparable] interface {
	Search(key uint64) (V, bool)
	Insert(key uint64, val V) bool
	// Write is the structure's one write body: insert key, or replace its
	// value, returning the previous value, the value key maps to on
	// return and whether key was present. p.Keep judges a present value
	// once it is validated as Search validates a hit, and a value it
	// keeps costs no lock, store or version bump; p.Build builds the value
	// otherwise, outside the critical section. Set is Write with a value
	// already built (see ds.Put).
	Write(key uint64, p ds.Put[V]) (old, val V, replaced bool)
	Delete(key uint64) (V, bool)
	// DeleteIfValue removes key only while it maps to exactly val, and
	// ReplaceIfValue swaps its value from exactly old to new: the
	// conditional updates of a caller that sampled the entry without a
	// lock, checked under the lock that owns it.
	DeleteIfValue(key uint64, val V) bool
	ReplaceIfValue(key uint64, old, new V) bool
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
}

// Store is a key-value index over uint64 keys and values: the hashed form
// New builds, and the core every other type in the package is made of.
// All methods are safe for concurrent use. Keys follow the library's
// range ([ds.MinKey, ds.MaxKey]); values are unrestricted.
// The value word V is uint64 for every store a caller builds; the string
// layer builds its own index over *pair.
type Store[V comparable] struct {
	shard shard[V]
	sched *maint.Scheduler
}

var _ ds.Set = (*Store[uint64])(nil)

// options collects construction knobs; see the Option helpers.
type options struct {
	shardBuckets int
	interval     time.Duration
	maintenance  bool
	// clock and byteBudget configure the string layer's memory governance
	// (see WithClock/WithByteBudget and ttl.go); the index-only
	// constructors ignore them.
	clock      func() int64
	byteBudget int64
}

// Option configures the constructors.
type Option func(*options)

// WithShardBuckets sets the hash table's initial (and floor) bucket
// count, rounded up to a power of two; the default is 1024. The table
// never shrinks below its floor, so this is the provisioned size. The
// ordered constructors ignore it: a skip list has no buckets.
func WithShardBuckets(n int) Option {
	return func(o *options) { o.shardBuckets = n }
}

// WithMaintenanceInterval sets the scheduler's base poll interval
// (default maint.DefaultInterval; it backs off exponentially while the
// store idles).
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
// reads. The default is time.Now; tests inject a clock they advance by
// hand, so every expiry behavior reproduces deterministically — no
// sleeps.
func WithClock(now func() int64) Option {
	return func(o *options) { o.clock = now }
}

// WithByteBudget bounds the string layer's approximate live footprint:
// when bytes_used exceeds n, the maintenance pass evicts sampled entries —
// the barely-read ones, else the least often read, the longest untouched
// among entries nobody read — until back under. Writes evict on their own
// time too. A SET of a new key that would take the store over n is
// decided before it is stored: the key is stored only if it has been read
// more often than the entry it would displace, or neither was read, and
// a value larger than n is never stored. Either way the SET replies as a
// fresh insert. An MSET or a longer overwrite that leaves the store over
// n evicts the barely-read entries of a sample. 0 (the default) means
// unbounded. The budget governs bytes, not elements — the store sheds a
// few large values or many small ones alike.
func WithByteBudget(n int64) Option {
	return func(o *options) { o.byteBudget = n }
}

// newOptions applies opts over the defaults.
func newOptions(opts []Option) options {
	o := options{shardBuckets: 1024, maintenance: true}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// maintain starts the store's maintenance scheduler over its shard, if
// the shard resizes, and then extra — the maintainers are fixed here, for
// the store's life. It starts nothing under WithoutMaintenance, nor when
// there is nothing to maintain: an ordered index alone has no scheduler.
func (s *Store[V]) maintain(o options, extra ...maint.Maintainer) {
	ms := extra
	if r, ok := s.shard.(resizer); ok {
		ms = append([]maint.Maintainer{r}, extra...)
	}
	if o.maintenance && len(ms) > 0 {
		s.sched = maint.NewScheduler(o.interval, ms...)
	}
}

// New returns a Store over one resizable OPTIK hash table, serviced by a
// maintenance scheduler (unless WithoutMaintenance). Close releases the
// scheduler goroutine.
func New(opts ...Option) *Store[uint64] {
	o := newOptions(opts)
	s := newHashed[uint64](o)
	s.maintain(o)
	return s
}

// newHashed is the index core over a hash table, for any value word,
// with no scheduler yet.
func newHashed[V comparable](o options) *Store[V] {
	return &Store[V]{shard: hashmap.NewResizableOf[V](o.shardBuckets)}
}

// Close stops the maintenance scheduler. The store stays usable —
// migration still advances on updates and Quiesce still works — it just
// gets no background attention. Idempotent.
func (s *Store[V]) Close() {
	if s.sched != nil {
		s.sched.Stop()
	}
}

// Get returns the value stored under key, if present. Lock-free, like the
// shard's Search.
func (s *Store[V]) Get(key uint64) (V, bool) {
	return s.shard.Search(key)
}

// Set stores key→val, inserting or replacing in place, and returns the
// previous value and whether one was replaced — the upsert a serving store
// needs (contrast Insert, the paper's set semantics).
func (s *Store[V]) Set(key uint64, val V) (V, bool) {
	old, _, replaced := s.shard.Write(key, ds.Put[V]{Val: val})
	return old, replaced
}

// Del removes key, returning its value, if present.
func (s *Store[V]) Del(key uint64) (V, bool) {
	return s.shard.Delete(key)
}

// DelIfValue removes key only while it still maps to exactly val, checked
// under the lock owning the entry (the table's bucket lock, the skip
// list's tower lock). The value layer's expiry/eviction retirement uses it
// to splice out exactly the pair it judged dead, never a successor.
func (s *Store[V]) DelIfValue(key uint64, val V) bool {
	return s.shard.DeleteIfValue(key, val)
}

// ReplaceIfValue swaps key's value from exactly old to new under the same
// lock, reporting whether it did: the value layer's Expire and Persist
// install a re-armed pair only over the one they read.
func (s *Store[V]) ReplaceIfValue(key uint64, old, new V) bool {
	return s.shard.ReplaceIfValue(key, old, new)
}

// sample probes the shard (see shard.Sample) at a position drawn from rnd
// remixed, so that consecutive steps of the caller's generator land on
// unrelated positions in the bits either shard reads: the table's bucket
// run and the skip list's stratum.
func (s *Store[V]) sample(rnd uint64) ([hashmap.SampleWidth]uint64, [hashmap.SampleWidth]V, int) {
	return s.shard.Sample(rng.Mix(rnd))
}

// Search implements ds.Set (alias of Get), so the workload drivers and
// stress harness run against a Store unchanged.
func (s *Store[V]) Search(key uint64) (V, bool) { return s.Get(key) }

// Insert implements ds.Set: strict insert-if-absent.
func (s *Store[V]) Insert(key uint64, val V) bool {
	return s.shard.Insert(key, val)
}

// Delete implements ds.Set (alias of Del).
func (s *Store[V]) Delete(key uint64) (V, bool) { return s.Del(key) }

// Len reads the shard's count: O(counter stripes), independent of the
// element count. Same non-linearizable contract as every Len in the
// library.
func (s *Store[V]) Len() int { return s.shard.Len() }

// resizer is the surface of a shard that resizes (the hash table): its
// monitoring counts, and the maintenance a resize needs — the scheduler's
// Maintainer contract and Quiesce. An ordered store reads 0 for both
// counts and has nothing to maintain.
type resizer interface {
	maint.Maintainer
	Buckets() int
	Resizes() int
	Quiesce()
}

// Buckets reads the table's current bucket count (racy; for monitoring).
func (s *Store[V]) Buckets() int {
	if r, ok := s.shard.(resizer); ok {
		return r.Buckets()
	}
	return 0
}

// Resizes reads the table's lifetime resize count (racy; for monitoring).
func (s *Store[V]) Resizes() int {
	if r, ok := s.shard.(resizer); ok {
		return r.Resizes()
	}
	return 0
}

// Quiesce drives the table's maintenance home: in-flight migrations
// completed, pending resizes settled. Operators normally never call it —
// the scheduler does — but workload phase transitions and tests want the
// determinism.
func (s *Store[V]) Quiesce() {
	if r, ok := s.shard.(resizer); ok {
		r.Quiesce()
	}
}

// checkKeys panics, like every point op, on the first key outside the
// library's range: the multi-key writes call it before they apply any key,
// so a batch holding a bad key changes nothing.
func checkKeys(keys []uint64) {
	for _, k := range keys {
		ds.CheckKey(k)
	}
}

// MGet looks up every keys[i], storing the value into vals[i] and
// presence into found[i]; vals and found must be at least len(keys) long.
func (s *Store[V]) MGet(keys []uint64, vals []V, found []bool) {
	for i, k := range keys {
		vals[i], found[i] = s.Get(k)
	}
}

// MSet applies Set(keys[i], vals[i]) for every i, returning how many keys
// were newly inserted.
func (s *Store[V]) MSet(keys []uint64, vals []V) int {
	checkKeys(keys)
	inserted := 0
	for i, k := range keys {
		if _, replaced := s.Set(k, vals[i]); !replaced {
			inserted++
		}
	}
	return inserted
}

// MDel deletes every key, returning how many were present.
func (s *Store[V]) MDel(keys []uint64) int {
	checkKeys(keys)
	deleted := 0
	for _, k := range keys {
		if _, ok := s.Del(k); ok {
			deleted++
		}
	}
	return deleted
}
