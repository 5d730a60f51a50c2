// The ordered face of the package: the same index core and the same string
// layer, over one sorted shard — a single OPTIK skip list (§5.3). Hashing
// would scatter adjacent keys and turn every range scan into a merge, and
// the skip list needs no partition to scale: its contention is per tower,
// not per structure (the paper's fig 11 runs one list to 40+ threads). So
// an ordered store is one skip list, as a hashed store is one table, and a
// scan is one level-0 walk.
//
// Nothing else differs. Ordered and SortedStrings exist as types only so
// that Scan, Min and Max are callable exactly where the index is sorted;
// every other method is the shared core's.
package store

import (
	"sync"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/ds/hashmap"
	"github.com/optik-go/optik/ds/skiplist"
	"github.com/optik-go/optik/internal/core"
)

// WithKeyMax once bounded the range partition of the ordered store.
//
// Deprecated: WithKeyMax does nothing. An ordered store is one skip list
// and has no partition to bound; the option is kept only so that code
// written against the partitioned store (the benchmark module among it)
// still compiles.
func WithKeyMax(uint64) Option { return func(*options) {} }

// orderedShard is the sorted implementation of the shard contract: an
// OPTIK skip list (§5.3) plus the striped counter the list itself does not
// keep. The embedded list supplies every method that leaves the element
// count alone (Search, ScanRange, Min, Max, ReplaceIfValue);
// every mutator that changes the count is overridden below to record it
// on the counter, a cheap Len (the list's own is an O(n) walk). A skip
// list never resizes and its unlinked towers go to the collector, so the
// shard has no maintenance and is not handed to a scheduler.
type orderedShard[V comparable] struct {
	*skiplist.Optik[V]
	count *core.Striped
}

func newOrderedShard[V comparable]() *orderedShard[V] {
	return &orderedShard[V]{
		Optik: skiplist.NewOptikOf[V](),
		count: core.NewStriped(0),
	}
}

func (sh *orderedShard[V]) Insert(key uint64, val V) bool {
	ok := sh.Optik.Insert(key, val)
	if ok {
		sh.count.Add(key, 1)
	}
	return ok
}

func (sh *orderedShard[V]) Write(key uint64, p ds.Put[V]) (old, val V, replaced bool) {
	old, val, replaced = sh.Optik.Write(key, p)
	if !replaced {
		sh.count.Add(key, 1)
	}
	return old, val, replaced
}

func (sh *orderedShard[V]) Delete(key uint64) (V, bool) {
	val, ok := sh.Optik.Delete(key)
	if ok {
		sh.count.Add(key, -1)
	}
	return val, ok
}

func (sh *orderedShard[V]) DeleteIfValue(key uint64, val V) bool {
	ok := sh.Optik.DeleteIfValue(key, val)
	if ok {
		sh.count.Add(key, -1)
	}
	return ok
}

// sampleStrata is how many equal strata of [Min, Max] the sorted shard's
// Sample draws from, 1<<sampleStrataBits (docs/ARCHITECTURE.md has the
// rows that chose it).
const (
	sampleStrataBits = 4
	sampleStrata     = 1 << sampleStrataBits
)

// Sample reports one entry of one stratum of the shard's key range: rnd's
// top bits pick one of sampleStrata equal strata of [Min, Max], and the
// probe reports the successor of a key drawn uniformly between the
// stratum's first key and its end, wrapping to that first key when the
// draw falls past the stratum's last one. An empty stratum reports
// nothing. The draw is uniform over the key space, not over the entries:
// within a stratum an entry is drawn as often as the gap below it is
// wide, and the stratum's first entry also takes every draw past its
// last. The strata bound how far that bias reaches: a cluster of keys
// (the hashes of similar strings are one) owns the strata it spans
// whatever gaps lie elsewhere, so one dominant gap cannot hide every other
// cluster from the sample. And the bias moves: an entry the draw cannot
// see becomes visible as soon as the entries before it go, because their
// gaps become its own (docs/ARCHITECTURE.md measures both). One probe
// reports one entry: a run of successors would be a run of keys alike
// wherever keys cluster, and a sample of them would be one draw K times.
func (sh *orderedShard[V]) Sample(rnd uint64) (keys [hashmap.SampleWidth]uint64, vals [hashmap.SampleWidth]V, n int) {
	lo, _, ok := sh.Min()
	if !ok {
		return keys, vals, 0
	}
	hi, _, ok := sh.Max()
	if !ok || hi < lo {
		return keys, vals, 0
	}
	width := (hi-lo)/sampleStrata + 1
	stratum := rnd >> (64 - sampleStrataBits)
	off := stratum * width
	if off > hi-lo {
		return keys, vals, 0
	}
	from := lo + off
	to := from + min(width-1, hi-lo-off)
	if sh.ScanRange(from, to, keys[:1], vals[:1]) == 0 {
		return keys, vals, 0
	}
	// A draw past the stratum's last key leaves its first in keys[0].
	first := keys[0]
	sh.ScanRange(first+rnd%(to-first+1), to, keys[:1], vals[:1])
	return keys, vals, 1
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

// Len reads the counter, clamped at zero like the tables' (a reader can
// catch a delete's decrement before the matching insert's increment).
func (sh *orderedShard[V]) Len() int {
	return int(max(sh.count.Sum(), 0))
}

// Ordered is the index core over one sorted shard: every method of Store,
// plus the ordered family — Scan, Min, Max — that a hashed store
// cannot serve.
type Ordered[V comparable] struct {
	Store[V]
	list *orderedShard[V]
}

// NewOrdered returns a store over one OPTIK skip list. A skip list needs
// no maintenance, so the store starts no scheduler and no option applies;
// Close is a no-op.
func NewOrdered(opts ...Option) *Ordered[uint64] {
	o := newOptions(opts)
	s := newOrdered[uint64]()
	s.maintain(o)
	return s
}

// newOrdered is the index core over a skip list, for any value word, with
// no scheduler yet.
func newOrdered[V comparable]() *Ordered[V] {
	list := newOrderedShard[V]()
	return &Ordered[V]{Store[V]{shard: list}, list}
}

// Scan copies the live entries with from <= key <= to, ascending, into
// keys/vals (same length), returning how many were filled. Cursoring
// works by resumption key — call again with from = lastKey+1 — which
// survives any amount of concurrent churn because the position is a key,
// not an index (see the skip list's ScanRange for the no-skip/no-repeat
// argument).
func (s *Ordered[V]) Scan(from, to uint64, keys []uint64, vals []V) int {
	return s.list.ScanRange(from, to, keys, vals)
}

// Min returns the smallest live key and its value; ok is false on an
// empty store.
func (s *Ordered[V]) Min() (key uint64, val V, ok bool) { return s.list.Min() }

// Max returns the largest live key and its value; ok is false on an
// empty store.
func (s *Ordered[V]) Max() (key uint64, val V, ok bool) { return s.list.Max() }

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
	s := &SortedStrings{sorted: newOrdered[*pair]()}
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
	page := scanPages.Get().(*[]*pair)
	if cap(*page) < len(keys) {
		*page = make([]*pair, len(keys))
	}
	defer func() {
		clear((*page)[:len(keys)])
		scanPages.Put(page)
	}()
	w := 0
	for w < len(keys) {
		kbuf := keys[w:]
		pairs := (*page)[:len(kbuf)]
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

// scanPages pools the page of pairs SortedStrings.Scan reads the index
// into, so a warm scan allocates nothing. A page's slots are cleared
// before it goes back: a pooled page must not keep a value alive.
var scanPages = sync.Pool{New: func() any { return new([]*pair) }}

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
