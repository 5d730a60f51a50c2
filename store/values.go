// The string layer: string values over the index core, one implementation
// under the hashed Strings and the skip-list SortedStrings
// alike. The index maps a key (a string key's 64-bit hash, or the uint64
// key itself on the sorted store) straight to its value: the index's value
// word is a *pair, one immutable, pointer-free object holding the
// eviction stamp, the deadline if the entry has one, and the value bytes.
// A read is one hop from key to value and takes no lock, and nothing has
// to be validated beyond what the index already validates:
//
//   - A SET that stores builds its pair first and publishes it through the
//     index after, so any pair a reader can reach is fully built. A SET
//     that restates the bytes a TTL-less entry already holds stores
//     nothing: the index decides it on its validated read, with no pair,
//     no lock and no version bump (put).
//   - A pair is never mutated (but for its advisory stamp) and never
//     reused: a fresh pair for every write that stores, so replacing a
//     value or a deadline publishes a new pair. A reader holding a pair
//     holds exactly the value the key mapped to at its read, for as long
//     as it likes.
//   - A pair leaves the index exactly once, by whichever call unmapped it
//     — an overwrite, a delete, or governance's conditional delete, which
//     compares pointers and so can never remove a successor.
package store

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/internal/core"
)

// pair is one stored value, header and bytes in a single allocation: the
// eviction stamp and the value length — then, in the same object, the n
// value bytes themselves. The struct is only the 8-byte header; newPair
// allocates it with its tail and val reads the tail back. An entry with a
// TTL carries one more word: the top bit of n (pairTTL) says the 8 bytes
// directly after the header are the absolute expiry deadline in the store
// clock's nanoseconds, and the value bytes follow that word instead of the
// header. An entry without one — most of them — pays nothing for the
// deadline it does not have.
//
//	no TTL:  | touched, n         | value bytes ...
//	TTL:     | touched, n|pairTTL | deadline | value bytes ...
//
// The pair does not say which key it belongs to: it is reached only
// through its key's index entry, or alongside the key by the sampler and
// the sweep. Nothing in the object is a pointer, so the collector marks a
// value and never scans it, and a reader that holds a *pair is one load
// from the bytes. newPair, size, deadline and val are the only code that
// knows the layout.
//
// Pairs are immutable once published — replacing a value (or a deadline:
// Expire/Persist build a new pair, of the other shape if need be, and swap
// it in with the index's ReplaceIfValue) never mutates one in place —
// except for touched, which is atomic and advisory. A reader therefore
// never sees a pair change shape. They are GC-owned and never recycled: a
// string val handed out stays valid and unchanged for as long as anyone
// holds it, and a pair's address names one value for its whole life.
type pair struct {
	// touched is the recency stamp: the eviction epoch in which the entry
	// was last read, or written (see age). Readers store it only when the
	// epoch moved since their last visit, so a hot entry writes the line
	// once per epoch, not once per read. How often the key is read is the
	// read sketch's to say (sketch.go), not the pair's.
	touched atomic.Uint32
	// n is the value length, with pairTTL set when the deadline word is
	// present; read it through size, deadline and val.
	n uint32
}

const (
	pairHeader = int(unsafe.Sizeof(pair{}))
	pairWords  = pairHeader / 8
	pairTTL    = 1 << 31
)

// newPair builds every pair: one pointer-free object holding the header,
// the deadline word when deadline is non-zero, and a private copy of val,
// so the caller's string may be a view over memory it is about to reuse.
// The object is a []uint64 rather than a []byte because the element type is
// what guarantees the header's 8-byte alignment. A length the 31 bits left
// beside the flag cannot hold is refused outright, never truncated
// (pairLen).
func newPair(val string, deadline int64, epoch uint32) *pair {
	words, n := pairWords, uint32(pairLen(val))
	if deadline != 0 {
		words, n = pairWords+1, n|pairTTL
	}
	obj := make([]uint64, words+(len(val)+7)/8)
	p := (*pair)(unsafe.Pointer(&obj[0]))
	p.n = n
	p.touched.Store(epoch)
	if deadline != 0 {
		obj[pairWords] = uint64(deadline)
	}
	if len(val) > 0 {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&obj[words])), len(val)), val)
	}
	return p
}

// pairLen returns the length of a value to store, refusing outright one
// the 31 bits a pair keeps beside its flag cannot hold; the wire cannot
// produce one (server.maxBulk).
func pairLen(val string) int {
	if len(val) > math.MaxInt32 {
		panic("store: value too large")
	}
	return len(val)
}

// size returns the value length: n without the flag.
func (p *pair) size() int { return int(p.n &^ pairTTL) }

// deadline returns the absolute expiry deadline, 0 for a pair without a
// TTL — whose object has no such word, so none is read.
func (p *pair) deadline() int64 {
	if p.n&pairTTL == 0 {
		return 0
	}
	return *(*int64)(unsafe.Add(unsafe.Pointer(p), pairHeader))
}

// val returns the value as a string over the pair's own tail: no copy, and
// the string keeps the whole object alive. The bytes start right after the
// header, or one word later when the deadline sits there. The empty value
// has no tail — its object ends where the header or the deadline does — so
// no pointer is formed for it.
func (p *pair) val() string {
	size := p.size()
	if size == 0 {
		return ""
	}
	off := pairHeader + int(p.n>>31)*8
	return unsafe.String((*byte)(unsafe.Add(unsafe.Pointer(p), off)), size)
}

// expiredAt reports whether the pair's deadline has passed at now.
func (p *pair) expiredAt(now int64) bool {
	d := p.deadline()
	return d != 0 && d <= now
}

// stampFuture is how many epochs ahead of a reader's epoch a stamp may be
// and still read as just touched: a stamp is from the future when it was
// stored after the reader loaded the epoch, which is a tick or two, and the
// slack of 1024 epochs (about a second) covers a reader descheduled across
// many.
const stampFuture = 1 << 10

// age returns the epochs since the pair was last touched, as seen from
// epoch, comparing modulo 2^32. A stamp up to stampFuture epochs ahead
// reads age 0; raw subtraction would make exactly the freshest entries the
// oldest. Every other distance is an age, so an entry idle for days reads
// oldest, as it is, until the wrap at 2^32 epochs (≈ 49 days of ~1 ms
// epochs), where it reads fresh for a second.
func (p *pair) age(epoch uint32) uint32 {
	a := epoch - p.touched.Load()
	if -a <= stampFuture { // a stamp of the reader's epoch, or up to stampFuture ahead
		return 0
	}
	return a
}

// touch moves the stamp to epoch, storing only if it is older: at most one
// store per entry per epoch, and a reader that loaded an older epoch does
// not take the stamp backwards.
func (p *pair) touch(epoch uint32) {
	if p.age(epoch) != 0 {
		p.touched.Store(epoch)
	}
}

// PairOverhead is the bytes charged per live entry beyond the value
// bytes. It is accounting, not a layout: what an entry really costs beside
// its bytes is the pair's 8-byte header (16 with a deadline), the
// allocator's rounding of it to a size class, and its share of the index —
// a 16-byte slot of a 64-byte bucket at a load of a quarter to two entries
// per bucket, a 24-byte chain node, or a skip-list tower of 32 bytes and
// up (~36 on average). 56 was sized when a value also cost an 8-byte arena slot; that slot
// is gone, and the charge is not lowered with it, because the byte budget
// governs order of magnitude, not malloc-exact bytes, and every budget
// already written against 56 — the eviction workload's, cache_churn's in
// bench/workloads.go, operators' capacity math — keeps meaning the number
// of entries it meant. It is the same for both pair shapes, so Expire and
// Persist never move the counter.
const PairOverhead = 56

// pairOverhead is the internal alias the value layer charges with.
const pairOverhead = PairOverhead

// fnv64a is FNV-1a inlined: hash/fnv's Write is allocation-free, but
// constructing its hash.Hash64 costs an interface allocation per call,
// and key hashing is on every operation's hot path.
func fnv64a[T ~string | ~[]byte](key T) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return clampHash(h)
}

// HashKey maps a string key into the index's key space, keeping clear of
// the tables' sentinel keys (0 and MaxUint64).
func HashKey(key string) uint64 { return fnv64a(key) }

// HashKeyBytes is HashKey for a byte-slice key; it does not retain or
// allocate, so protocol parsers can hash straight out of their read
// buffers.
func HashKeyBytes(key []byte) uint64 { return fnv64a(key) }

func clampHash(v uint64) uint64 {
	if v == 0 || v == ^uint64(0) {
		return 1
	}
	return v
}

// Strings is the string layer over an index core: string values (and,
// through HashKey, string keys) on a sharded index from uint64 keys to
// *pair values, with per-entry TTL and byte-budget eviction (ttl.go). The
// *Hashed methods are the layer itself — they take the index key directly;
// the string-keyed forms hash first. NewStrings builds it over a
// hashed index — examples/kvstore runs that in-process and the
// server package serves it over TCP — and NewSortedStrings over a sorted
// one. Distinct string keys whose hashes collide alias to one entry; with
// 64-bit FNV-1a that needs ~2^32 live keys to become likely.
//
// Value ownership: every write (Set, SetEX, MSetHashed) that stores
// copies its value into the store's own object, and one that restates the
// value its key holds only compares; none retains anything of the
// argument, so a caller may pass a view over a buffer it reuses as soon as
// the call returns. Every read (Get, MGet, Scan, Min/Max) returns a string
// that aliases that immutable object: it costs no copy and stays valid and
// unchanged for as long as the caller holds it, whatever happens to the
// key. Expire and Persist replace the pair, copying the value bytes into
// the replacement.
type Strings struct {
	// Set once by init and read by every operation: the index, the byte
	// counter, the counter of writes decided without storing (see put),
	// the counter of warm eviction victims (see evictSample), the read
	// sketch (nil without a budget), the injectable clock (nil =
	// time.Now) and the byte budget (0 = unbounded).
	// They own their cache line — the words below are stored by writers
	// and by governance, and a GET must not take a miss on this line for
	// it.
	index  *Store[*pair]
	bytes  *core.Striped
	elided *core.Striped
	warm   *core.Striped
	sketch *sketch
	clock  func() int64
	budget int64

	_ core.CacheLinePad
	governed
	_ core.CacheLinePad

	// The sweeper's state, under maintMu (see maintainPass): its position
	// — the shard's Sweep cursor — its rng, and the page the sweep reads
	// entries into.
	maintMu     sync.Mutex
	sweepCursor uint64
	sweepRng    uint64
	sweepKeys   [sweepPage]uint64
	sweepPairs  [sweepPage]*pair
}

// governed is the memory-governance state (see ttl.go) that operations
// write while they run: packed together on lines of their own, away from
// the read-mostly fields before them and the sweeper's state after. It is a
// struct of its own so that the packing reads as one decision — padcheck
// holds a padded struct to one atomic field per line, and these are one
// field.
type governed struct {
	// epoch is the recency stamps' epoch: passes and hands advance it.
	epoch        atomic.Uint32
	expiredLazy  atomic.Uint64
	expiredSwept atomic.Uint64
	evicted      atomic.Uint64
	// evictedNew counts the scalar fresh inserts turned away before
	// they were stored (see set).
	evictedNew atomic.Uint64
	// handRng seeds the write path's lock-free eviction hands (see
	// evictHand): each hand derives a private xorshift state from one
	// atomic bump, so concurrent hands probe independent entries without
	// sharing the sweeper's maintMu-guarded rng.
	handRng atomic.Uint64
	// epochTick is the clock reading of the last epoch tick;
	// hands CAS it forward every epochPeriod (see evictHand), passes
	// overwrite it.
	epochTick atomic.Int64
	// deadlines is set, once and for good, by the first write that stores
	// a deadline, before that write publishes: until then no entry can
	// expire and the passes skip the sweep (see maintainPass).
	deadlines atomic.Bool
}

// NewStrings returns a string store over a hashed index; the options
// configure the index exactly as in New, and WithClock/WithByteBudget
// configure the memory-governance layer (ttl.go).
func NewStrings(opts ...Option) *Strings {
	o := newOptions(opts)
	s := new(Strings)
	s.init(newHashed[*pair](o), o)
	return s
}

// init wires the layer over index, in place (the scheduler keeps the
// pointer): the byte counter, the governance options and, under a budget,
// the read sketch, then the sweep rng, and last the index's scheduler,
// started over its shard and the governance pass unless
// WithoutMaintenance — such stores are driven via Quiesce.
func (s *Strings) init(index *Store[*pair], o options) {
	s.index, s.bytes, s.elided, s.warm = index, core.NewStriped(0), core.NewStriped(0), core.NewStriped(0)
	s.clock, s.budget = o.clock, o.byteBudget
	if s.budget != 0 {
		s.sketch = newSketch(s.budget)
	}
	s.sweepRng = 0x9E3779B97F4A7C15
	s.handRng.Store(0x6A09E667F3BCC909)
	index.maintain(o, ttlMaintainer{s})
}

// Index exposes the underlying index core for stats aggregation.
func (s *Strings) Index() *Store[*pair] { return s.index }

// Close stops the index's maintenance scheduler.
func (s *Strings) Close() { s.index.Close() }

// Quiesce drives every index shard's maintenance home, then runs one full
// synchronous governance pass (expiry sweep + eviction to budget), so a
// quiesced store's bytes_used sits at or under its budget
// deterministically — tests and workload phase transitions rely on it.
func (s *Strings) Quiesce() {
	s.index.Quiesce()
	s.maintainPass(nil, 0)
}

// Len returns the live key count (same non-linearizable contract as
// Store.Len).
func (s *Strings) Len() int { return s.index.Len() }

// charge adds the footprint of a pair holding n value bytes to the byte
// counter — n plus pairOverhead — before the pair can be published under
// k; credit takes it off again, in whichever call unmapped the pair (or in
// the write that charged it and then stored nothing). Charging first keeps
// every counter cell at or above its live entries: an unmap can never
// credit a pair before its write has charged it.
func (s *Strings) charge(k uint64, n int) { s.bytes.Add(k, int64(n)+pairOverhead) }
func (s *Strings) credit(k uint64, n int) { s.bytes.Add(k, -int64(n)-pairOverhead) }

// live is the read path's one judgment over what the index returned for k:
// a pair whose deadline has passed is a miss, and retires through the same
// conditional-delete splice the sweeper uses. TTL-less pairs pay one
// predictable branch. Every accessor — point read or scan — goes through
// here.
func (s *Strings) live(k uint64, p *pair, ok bool) *pair {
	if !ok {
		return nil
	}
	if s.expiredNow(p) {
		s.retire(k, p, &s.expiredLazy)
		return nil
	}
	return p
}

// lookup is the scalar read: k's live pair, or nil.
func (s *Strings) lookup(k uint64) *pair {
	p, ok := s.index.Get(k)
	return s.live(k, p, ok)
}

// Set stores key→value, returning true if it replaced an existing value
// and false on a fresh insert.
func (s *Strings) Set(key, value string) bool {
	return s.SetHashed(HashKey(key), value)
}

// SetHashed is Set for a pre-hashed key (see HashKey/HashKeyBytes). A
// plain Set clears any TTL the key carried (the new pair's deadline is
// zero); overwriting an already-expired entry reports a fresh insert.
func (s *Strings) SetHashed(k uint64, value string) bool {
	return s.set(k, value, 0)
}

// set is the scalar write under Set and SetEX. Under a budget the write
// is judged before it is built: when it would take bytes_used over the
// budget and the validated lookup finds k absent, a fresh insert holds its
// duel first (evictHand), and a newcomer that loses it, or whose value
// alone outweighs the budget, is turned away — nothing is allocated,
// charged, locked or version-bumped, the eviction counts on EvictedNew,
// and the SET reports a fresh insert, as a write evicted at once would.
// A winner has retired its victim and is stored by put. An overwrite with
// a longer value that leaves the store over its budget lends a raze round
// after the write; a same-size or shorter one, and a restated SET, add no
// bytes and lend nothing. A racing writer can make k present between the
// lookup and put: the insert is then an overwrite that paid one eviction.
func (s *Strings) set(k uint64, value string, deadline int64) bool {
	ds.CheckKey(k)
	cost := int64(pairLen(value)) + pairOverhead
	if !s.fits(cost) && s.lookup(k) == nil && (cost > s.budget || !s.evictHand(k)) {
		s.evicted.Add(1)
		s.evictedNew.Add(1)
		return false
	}
	live, grew := s.put(k, value, deadline, s.epoch.Load())
	if live && grew && !s.fits(0) {
		s.evictHand(0)
	}
	return live
}

// put is the write's body, for a key already checked. A SET without a
// deadline that restates the bytes a TTL-less entry already holds is
// decided on the index's validated read (restated): no pair, no lock, and
// no version bump, so the bucket's or tower's readers do not restart. Any
// other write has the index build its pair (buildPair) and publish it,
// and the displaced pair is credited back. The bytes are charged before
// the write, as for any pair that may be published, and a kept write
// credits them back. It reports whether a live value was replaced and
// whether the write added bytes: a fresh insert, or a value longer than
// the one it displaced. Admission is the caller's, decided before put
// runs: put stores whatever it is handed. A write is not a read: it counts
// nothing on the read sketch, and the pair it stores is born at the
// write's epoch whatever its predecessor's stamp said.
func (s *Strings) put(k uint64, value string, deadline int64, epoch uint32) (live, grew bool) {
	w := ds.Put[*pair]{Build: buildPair, Bytes: value, Aux: deadline, Tag: epoch}
	if deadline == 0 {
		w.Keep = restated
	} else {
		s.storesDeadlines()
	}
	n := pairLen(value) // a refused value is refused before it is charged
	s.charge(k, n)
	old, p, replaced := s.index.shard.Write(k, w)
	if replaced && p == old {
		s.credit(k, n)
		s.elided.Add(k, 1)
		return true, false
	}
	return replaced && s.unmapped(k, old), !replaced || n > old.size()
}

// buildPair builds the pair a put stores: its value bytes, its deadline,
// and a recency stamp of the put's epoch.
func buildPair(w ds.Put[*pair]) *pair { return newPair(w.Bytes, w.Aux, w.Tag) }

// restated is a put's keep judgment: the entry has no deadline and holds
// exactly the bytes being written (a pair with a deadline carries pairTTL
// in n, so it never matches a length). The put is issued without a
// deadline, so storing would change nothing a reader can see.
func restated(old *pair, w ds.Put[*pair]) bool {
	return old.n == uint32(len(w.Bytes)) && old.val() == w.Bytes
}

// unmapped credits back a pair just unmapped from the index — replaced or
// deleted — and reports whether it was live: an expired one was already
// observably absent, and counts as lazily expired.
func (s *Strings) unmapped(k uint64, old *pair) bool {
	s.credit(k, old.size())
	if s.expiredNow(old) {
		s.expiredLazy.Add(1)
		return false
	}
	return true
}

// Get returns the value stored under key.
func (s *Strings) Get(key string) (string, bool) {
	return s.GetHashed(HashKey(key))
}

// GetHashed is Get for a pre-hashed key: index → pair, plus, when a byte
// budget is in force, the read counted on the sketch — hit or miss, since
// a key missed now is the refill admission will judge next — and a hit's
// recency stamp moved to the current epoch.
func (s *Strings) GetHashed(k uint64) (string, bool) {
	p := s.lookup(k)
	if s.sketch != nil {
		s.read(k, p)
	}
	if p == nil {
		return "", false
	}
	return p.val(), true
}

// read counts a GET of k on the read sketch and touches its pair, if any.
// The read that ends the sketch's period halves it, re-arming the period
// at sketchPeriod reads per live entry (and per table word, so that a
// nearly empty store does not halve at every turn).
func (s *Strings) read(k uint64, p *pair) {
	if s.sketch.add(k) {
		s.sketch.halve(sketchPeriod * int64(max(s.Len(), len(s.sketch.words))))
	}
	if p != nil {
		p.touch(s.epoch.Load())
	}
}

// Del removes key, reporting whether it was present.
func (s *Strings) Del(key string) bool {
	return s.DelHashed(HashKey(key))
}

// DelHashed is Del for a pre-hashed key. Deleting an entry whose TTL has
// already passed reports false — the key was observably absent.
func (s *Strings) DelHashed(k uint64) bool {
	old, ok := s.index.Del(k)
	return ok && s.unmapped(k, old)
}

// MGet looks up every keys[i], storing the value into vals[i] and
// presence into found[i]; vals and found must be at least len(keys) long.
func (s *Strings) MGet(keys []string, vals []string, found []bool) {
	for i, key := range keys {
		vals[i], found[i] = s.Get(key)
	}
}

// MGetHashed is MGet for pre-hashed keys (see HashKeyBytes): protocol
// parsers hash straight out of their read buffers and hand the batch
// here, so key bytes never escape the parser's views.
func (s *Strings) MGetHashed(hashes []uint64, vals []string, found []bool) {
	for i, k := range hashes {
		vals[i], found[i] = s.GetHashed(k)
	}
}

// MSetHashed stores vals[i] under every pre-hashed keys[i], recording
// into replaced[i] whether a live value was overwritten, and returns the
// fresh-insert count. Every key is checked before any is charged or
// applied; then each is one put, and its fresh keys duel no victim: they
// are stored as they come, and a batch that added bytes lends its
// eviction rounds after the last key,
// one per evictSampleK fresh inserts, rounded up, and at least one, each
// lent while the store is over its budget. A round razes every barely-read
// entry of its sample of about evictSampleK, so a bulk load of unread keys
// evicts as fast as it inserts (TestBulkLoadHoldsBudget). A duel per key
// would hold the budget too, at half again the load's time
// (docs/ARCHITECTURE.md). replaced must be at least len(hashes) long.
// Duplicate hashes apply in order, as sequential SetHashed calls would.
func (s *Strings) MSetHashed(hashes []uint64, vals []string, replaced []bool) int {
	checkKeys(hashes)
	epoch := s.epoch.Load()
	inserted, grew := 0, false
	for i, k := range hashes {
		var added bool
		replaced[i], added = s.put(k, vals[i], 0, epoch)
		grew = grew || added
		if !replaced[i] {
			inserted++
		}
	}
	if !grew {
		return inserted
	}
	for range max(1, (inserted+evictSampleK-1)/evictSampleK) {
		if !s.fits(0) {
			s.evictHand(0)
		}
	}
	return inserted
}

// MDelHashed removes every pre-hashed keys[i], recording presence into
// found[i], and returns the hit count; found must be at least len(hashes)
// long. Every key is checked before any is removed.
func (s *Strings) MDelHashed(hashes []uint64, found []bool) int {
	checkKeys(hashes)
	deleted := 0
	for i, k := range hashes {
		found[i] = s.DelHashed(k)
		if found[i] {
			deleted++
		}
	}
	return deleted
}
