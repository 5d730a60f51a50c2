// The ordered face of the package: the same index core and the same string
// layer, over sorted shards behind a RANGE partition instead of a hash.
// Hashing would scatter adjacent keys across shards and turn every range
// scan into a full-fleet merge; partitioning the key space into contiguous
// slices keeps a scan's locality (one shard, or a few adjacent ones) and
// makes cross-shard scans a concatenation instead of a merge sort.
//
// The trade against the hash store is explicit: a skewed key distribution
// concentrates load on the shards owning the hot slice, where the hash
// router would spread it. WithKeyMax exists for exactly that reason — tell
// the store the real key ceiling and the partition stretches over the used
// space instead of dedicating almost every shard to keys that never occur.
//
// Nothing else differs. Ordered and SortedStrings exist as types only so
// that Scan, Min and Max are callable exactly where the shards are sorted;
// every other method is the shared core's.
package store

import (
	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/ds/hashmap"
	"github.com/optik-go/optik/ds/skiplist"
	"github.com/optik-go/optik/internal/core"
	"github.com/optik-go/optik/internal/qsbr"
)

// WithKeyMax declares the largest key an ordered store will hold (default
// ds.MaxKey). The range partition divides [0, max] evenly across the
// shards, so a store holding small keys should declare its real ceiling
// or every key lands on shard 0. Keys above max are still legal — they
// all route to the last shard. Ignored by the hash-routed constructors.
func WithKeyMax(max uint64) Option {
	return func(o *options) { o.keyMax = max }
}

// orderedShard is the sorted implementation of the shard contract: an
// OPTIK skip list (§5.3) recycling its towers through its own qsbr pool,
// plus the striped counter the list itself does not keep. The embedded
// list supplies the read side (Search, SearchBatch, ScanRange, Min, Max,
// ReclaimStats); every mutator is overridden below to record its outcome
// on the counter, whose net half is a cheap Len (the list's own is an
// O(n) walk) and whose op half is the scheduler's activity signal.
type orderedShard[V comparable] struct {
	*skiplist.Optik[V]
	count *core.Striped
}

func newOrderedShard[V comparable]() shard[V] {
	return &orderedShard[V]{
		Optik: skiplist.NewOptikPool[V](qsbr.NewPool(qsbr.NewDomain(), 0)),
		count: core.NewStriped(0),
	}
}

// noteUpsert records one upsert: +1 element unless it replaced in place.
func (sh *orderedShard[V]) noteUpsert(key uint64, replaced bool) {
	if replaced {
		sh.count.AddOp(key, 0)
	} else {
		sh.count.AddOp(key, 1)
	}
}

func (sh *orderedShard[V]) Insert(key uint64, val V) bool {
	ok := sh.Optik.Insert(key, val)
	if ok {
		sh.count.AddOp(key, 1)
	}
	return ok
}

func (sh *orderedShard[V]) Upsert(key uint64, val V) (V, bool) {
	old, replaced := sh.Optik.Upsert(key, val)
	sh.noteUpsert(key, replaced)
	return old, replaced
}

func (sh *orderedShard[V]) Delete(key uint64) (V, bool) {
	val, ok := sh.Optik.Delete(key)
	if ok {
		sh.count.AddOp(key, -1)
	}
	return val, ok
}

func (sh *orderedShard[V]) DeleteIfValue(key uint64, val V) bool {
	ok := sh.Optik.DeleteIfValue(key, val)
	if ok {
		sh.count.AddOp(key, -1)
	}
	return ok
}

func (sh *orderedShard[V]) ReplaceIfValue(key uint64, old, new V) bool {
	ok := sh.Optik.ReplaceIfValue(key, old, new)
	if ok {
		sh.count.AddOp(key, 0)
	}
	return ok
}

func (sh *orderedShard[V]) UpsertBatchEach(keys []uint64, vals, old []V, replaced []bool) int {
	inserted := sh.Optik.UpsertBatchEach(keys, vals, old, replaced)
	for i, k := range keys {
		sh.noteUpsert(k, replaced[i])
	}
	return inserted
}

func (sh *orderedShard[V]) DeleteBatchEach(keys []uint64, old []V, found []bool) int {
	removed := sh.Optik.DeleteBatchEach(keys, old, found)
	for i, k := range keys {
		if found[i] {
			sh.count.AddOp(k, -1)
		}
	}
	return removed
}

// Sample reports the successor of a key drawn uniformly between the
// shard's smallest and largest key: the first entry at or after it. The
// draw is uniform over the key space, not over the entries — an entry is
// drawn as often as the gap below it is wide (the smallest entry, one key
// wide) — so it favours the first entry after every empty stretch of the
// key space, and can leave most entries of a clustered key set undrawn at
// any one moment (docs/ARCHITECTURE.md measures both). Two things keep
// that from steering eviction. A gap says nothing about how its entry is
// used, so the bias adds noise to the sample, never a preference. And it
// moves: an entry the draw cannot see becomes visible as soon as the
// entries before it go, because their gaps become its own. One probe
// reports one entry: a run of successors would be a run of keys alike
// wherever keys cluster (the hashes of similar strings do), and a sample
// of them would be one draw K times.
func (sh *orderedShard[V]) Sample(rnd uint64) (keys [hashmap.SampleWidth]uint64, vals [hashmap.SampleWidth]V, n int) {
	lo, _, ok := sh.Min()
	if !ok {
		return keys, vals, 0
	}
	hi, _, ok := sh.Max()
	if !ok || hi < lo {
		return keys, vals, 0
	}
	return keys, vals, sh.ScanRange(lo+rnd%(hi-lo+1), hi, keys[:1], vals[:1])
}

// Sweep walks level 0 from the cursor key: one ScanRange page, and the
// key after its last entry to resume from (0 once the shard is exhausted).
// A position that is a key, not a node, survives any churn, so every key
// present for the whole lap is visited exactly once.
func (sh *orderedShard[V]) Sweep(cursor uint64, keys []uint64, vals []V) (n int, next uint64) {
	n = sh.ScanRange(max(cursor, ds.MinKey), ds.MaxKey, keys, vals)
	if n < len(keys) || keys[n-1] == ds.MaxKey {
		return n, 0
	}
	return n, keys[n-1] + 1
}

// Len reads the counter's net half, clamped at zero like the tables' (a
// reader can catch a delete's decrement before the matching insert's
// increment).
func (sh *orderedShard[V]) Len() int {
	return int(max(sh.count.Net(), 0))
}

// Quiesce drains pending tower retirements: with no concurrent operations,
// every retired tower is on the free list when it returns. Bounded, so it
// terminates under concurrent traffic too (where "fully drained" is a
// moving target).
func (sh *orderedShard[V]) Quiesce() {
	for i := 0; i < 4; i++ {
		if retired, reclaimed, _ := sh.ReclaimStats(); retired == reclaimed {
			return
		}
		sh.Pool().Sweep()
	}
}

// ActivitySample implements maint.Maintainer: the monotone op count moves
// on every successful update, so an unchanged sample means the shard was
// untouched since the last poll.
func (sh *orderedShard[V]) ActivitySample() uint64 { return uint64(sh.count.Ops()) }

// MaintainIdle implements maint.Maintainer: with the shard idle, sweep its
// pool so retired towers reclaim even if no future operation ever borrows
// a handle. Cheap when nothing is pending.
func (sh *orderedShard[V]) MaintainIdle(<-chan struct{}) { sh.Pool().Sweep() }

// MaintainBusy implements maint.Maintainer: a busy skip-list shard needs
// no help — there is no migration to advance, and the operations' own
// handle borrows drive the reclamation epoch.
func (sh *orderedShard[V]) MaintainBusy() {}

// Ordered is the index core over sorted shards: every method of Store,
// plus the ordered family — Scan, Min, Max — that a hash-routed store
// cannot serve.
type Ordered[V comparable] struct{ Store[V] }

// NewOrdered returns a range-partitioned store over OPTIK skip lists.
// WithShards, WithMaintenanceInterval and WithoutMaintenance mean what
// they do for New; WithKeyMax bounds the partition; WithShardBuckets does
// not apply.
func NewOrdered(opts ...Option) *Ordered[uint64] { return newOrdered[uint64](newOptions(opts)) }

// newOrdered is NewOrdered over any value word.
func newOrdered[V comparable](o options) *Ordered[V] {
	var shift uint
	for shift < 64 && o.keyMax>>shift >= uint64(o.shards) {
		shift++
	}
	return &Ordered[V]{newStore(o, 1, shift, newOrderedShard[V])}
}

// sorted recovers the sorted shard behind the contract; an Ordered holds
// no other kind.
func sorted[V comparable](sh shard[V]) *orderedShard[V] { return sh.(*orderedShard[V]) }

// Scan copies the live entries with from <= key <= to, ascending, into
// keys/vals (same length), returning how many were filled. The range
// partition makes this a concatenation: shards are visited in partition
// order and each contributes its slice of the window already sorted, so
// no merge is needed. Cursoring works by resumption key — call again with
// from = lastKey+1 — which survives any amount of concurrent churn
// because the position is a key, not an index (see the skip list's
// ScanRange for the no-skip/no-repeat argument).
func (s *Ordered[V]) Scan(from, to uint64, keys []uint64, vals []V) int {
	ds.CheckKey(from)
	ds.CheckKey(to)
	if from > to {
		return 0
	}
	n := 0
	for i, end := s.shardID(from), s.shardID(to); i <= end && n < len(keys); i++ {
		n += sorted(s.shards[i]).ScanRange(from, to, keys[n:], vals[n:])
	}
	return n
}

// Min returns the smallest live key and its value; ok is false on an
// empty store. Shards are probed in partition order, so the first hit is
// the global minimum.
func (s *Ordered[V]) Min() (key uint64, val V, ok bool) {
	for _, sh := range s.shards {
		if k, v, ok := sorted(sh).Min(); ok {
			return k, v, true
		}
	}
	return 0, val, false
}

// Max returns the largest live key and its value; ok is false on an
// empty store.
func (s *Ordered[V]) Max() (key uint64, val V, ok bool) {
	for i := len(s.shards) - 1; i >= 0; i-- {
		if k, v, ok := sorted(s.shards[i]).Max(); ok {
			return k, v, true
		}
	}
	return 0, val, false
}

// SortedStrings maps uint64 keys to string values with range queries: the
// string layer (Strings, embedded — TTL, byte budget, eviction and the
// whole *Hashed family included) over an Ordered index. Here the "hash" a
// *Hashed method takes IS the key: keys already live in
// [ds.MinKey, ds.MaxKey], clear of the index's sentinels, and the short
// names below are the same calls without the misnomer.
//
// Arbitrary string KEYS are deliberately not the point: the embedded
// Strings' string-keyed conveniences (Strings.Get, Strings.SetEX, ...)
// still work, but they hash the key, which destroys the ordering this
// store exists to serve. Callers with naturally ordered identifiers
// (scores, timestamps, sequence numbers) encode them as uint64s;
// everything else belongs in a plain Strings.
type SortedStrings struct {
	Strings
	sorted *Ordered[*pair]
}

// NewSortedStrings returns an ordered string store; the options configure
// the index exactly as in NewOrdered and the value layer as in NewStrings.
func NewSortedStrings(opts ...Option) *SortedStrings {
	o := newOptions(opts)
	s := &SortedStrings{sorted: newOrdered[*pair](o)}
	s.init(&s.sorted.Store, o)
	return s
}

// Get returns the value stored under key.
func (s *SortedStrings) Get(key uint64) (string, bool) { return s.GetHashed(key) }

// Set stores key→value, returning true if it replaced a live value.
func (s *SortedStrings) Set(key uint64, value string) bool { return s.SetHashed(key, value) }

// Del removes key, reporting whether it was present.
func (s *SortedStrings) Del(key uint64) bool { return s.DelHashed(key) }

// MGet looks up every keys[i] into vals[i]/found[i] (at least len(keys)
// long).
func (s *SortedStrings) MGet(keys []uint64, vals []string, found []bool) {
	s.MGetHashed(keys, vals, found)
}

// MSet stores vals[i] under keys[i], recording into replaced[i] whether a
// live value was overwritten, and returns the fresh-insert count.
func (s *SortedStrings) MSet(keys []uint64, vals []string, replaced []bool) int {
	return s.MSetHashed(keys, vals, replaced)
}

// MDel removes every keys[i], recording presence into found[i], and
// returns the hit count.
func (s *SortedStrings) MDel(keys []uint64, found []bool) int {
	return s.MDelHashed(keys, found)
}

// Scan copies live entries with from <= key <= to, ascending, into
// keys/vals (same length), returning how many were filled. An index entry
// whose pair has expired is retired on the spot and dropped, and the index
// scan resumes past the last visited key to refill the freed positions. A
// short return therefore always means the range is exhausted, never that
// expiry shrank the page — paging callers (the server's SCAN cursor) treat
// a short page as end-of-range, so a shrunk page would silently skip every
// key between the lost entries and the range end.
func (s *SortedStrings) Scan(from, to uint64, keys []uint64, vals []string) int {
	sc := grabStrScratch(len(keys))
	defer sc.release(len(keys))
	w := 0
	for w < len(keys) {
		kbuf := keys[w:]
		pairs := sc.pairs[:len(kbuf)]
		n := s.sorted.Scan(from, to, kbuf, pairs)
		if n == 0 {
			break
		}
		// Read before compaction below may overwrite kbuf[n-1] in place.
		last := kbuf[n-1]
		for i := 0; i < n; i++ {
			if p := s.live(kbuf[i], pairs[i], true); p != nil {
				keys[w], vals[w] = kbuf[i], p.val()
				w++
			}
		}
		if n < len(kbuf) || last >= to {
			break // the index itself ran out of keys in range
		}
		from = last + 1
	}
	return w
}

// Min returns the smallest live key and its value; ok is false on an
// empty store.
func (s *SortedStrings) Min() (uint64, string, bool) { return s.endpoint(s.sorted.Min) }

// Max returns the largest live key and its value; ok is false on an
// empty store.
func (s *SortedStrings) Max() (uint64, string, bool) { return s.endpoint(s.sorted.Max) }

// endpoint resolves the index's current extreme entry to a live value. An
// entry that expired under the read (live retires it) leaves a different
// extreme behind, so the loop asks the index again.
func (s *SortedStrings) endpoint(extreme func() (uint64, *pair, bool)) (uint64, string, bool) {
	for {
		k, p, ok := extreme()
		if !ok {
			return 0, "", false
		}
		if p = s.live(k, p, true); p != nil {
			return k, p.val(), true
		}
	}
}
