// The string layer: string values over the index core, one implementation
// under the hash-routed Strings and the range-partitioned SortedStrings
// alike. The index maps a key (a string key's 64-bit hash, or the uint64
// key itself on the sorted store) straight to its value: the index's value
// word is a *pair, one immutable, pointer-free object holding the
// eviction stamp, the deadline if the entry has one, and the value bytes.
// A read is one hop from key to value and takes no lock, and nothing has
// to be validated beyond what the index already validates:
//
//   - SET builds the pair first and publishes it through the index after,
//     so any pair a reader can reach is fully built.
//   - A pair is never mutated (but for its advisory stamp) and never
//     reused: replacing a value or a deadline publishes a new pair. A
//     reader holding a pair holds exactly the value the key mapped to at
//     its read, for as long as it likes.
//   - A pair leaves the index exactly once, by whichever call unmapped it
//     — an overwrite, a delete, or governance's conditional delete, which
//     compares pointers and so can never remove a successor.
package store

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

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
	// touched is the eviction stamp — how often and how recently the entry
	// was used, in one word (see stampRead). Readers store it only when the
	// epoch moved since their last visit, so a hot entry writes the line
	// once per epoch, not once per read.
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
// beside the flag cannot hold is refused outright, never truncated; the
// wire cannot produce one (server.maxBulk).
func newPair(val string, deadline int64, stamp uint32) *pair {
	if len(val) > math.MaxInt32 {
		panic("store: value too large")
	}
	words, n := pairWords, uint32(len(val))
	if deadline != 0 {
		words, n = pairWords+1, n|pairTTL
	}
	obj := make([]uint64, words+(len(val)+7)/8)
	p := (*pair)(unsafe.Pointer(&obj[0]))
	p.n = n
	p.touched.Store(stamp)
	if deadline != 0 {
		obj[pairWords] = uint64(deadline)
	}
	if len(val) > 0 {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&obj[words])), len(val)), val)
	}
	return p
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

// The eviction stamp packs frequency and recency into pair.touched:
//
//	| epoch of the last counted touch : 24 | count : 8 |
//
// count is the number of distinct epochs in which the entry was touched,
// saturating at stampCountMax, and it decays without anyone visiting the
// entry: whoever reads the stamp halves the count once for every generation
// boundary (a multiple of 2^stampGenBits epochs) crossed since the stamp was
// written. The boundaries are global, so the halvings follow from the stamp
// and the current epoch alone — no per-entry timer, no decay sweep.
//
// The stamp is advisory and racy by design: readers load and store it with
// no read-modify-write, so concurrent touches can lose a count, and nothing
// but the choice of an eviction victim may depend on it. The 24-bit epoch is
// compared modulo 2^24. A stamp up to one generation ahead of the reader's
// epoch is from the future — touched after the reader snapshotted the epoch —
// and reads as just touched; every other distance is an age, so an entry
// idle for hours reads oldest and coldest, as it is. Only at the wrap — idle
// for 2^24 epochs, ≈ 4.6 h at the ~1 ms epochPeriod — does a stamp alias: for
// the generation before it the entry reads as from the future, count
// undecayed, and for the few after it as recently touched, until the
// halvings have taken the count to nothing again. That is some ten seconds
// of looking used in every 4.6 h of not being, and it costs a misjudged
// victim or two, not a hot key.
const (
	stampCountBits = 8
	stampCountMax  = 1<<stampCountBits - 1
	stampEpochMask = 1<<(32-stampCountBits) - 1
	// stampGenBits sets the generation to 1024 epochs, about a second. On
	// cache_churn 2^7, 2^10, 2^12 and 2^14 all land within 0.3 points of
	// hit_rate of one another (docs/ARCHITECTURE.md), so it is a constant.
	stampGenBits = 10
)

// stampNew is the stamp of an entry first written in epoch: one touch.
func stampNew(epoch uint32) uint32 { return epoch<<stampCountBits | 1 }

// stampRead returns what a stamp says at epoch: the decayed touch count,
// and the epochs since the last counted touch. A stamp from the future reads
// age 0; raw subtraction would alias exactly the freshest entries to
// astronomical ages. A shift by the bit width or more is 0 in Go, so a
// stamp many generations old needs no clamp to read count 0.
func stampRead(stamp, epoch uint32) (freq, age uint32) {
	e := stamp >> stampCountBits
	age = (epoch - e) & stampEpochMask
	if age > stampEpochMask-1<<stampGenBits {
		age = 0
	}
	halvings := (e&(1<<stampGenBits-1) + age) >> stampGenBits
	return (stamp & stampCountMax) >> halvings, age
}

// stampTouch returns stamp after one more touch at epoch: unchanged when
// the stamp already counts this epoch (or a later one), so an entry's count
// moves at most once per epoch however often it is read.
func stampTouch(stamp, epoch uint32) uint32 {
	freq, age := stampRead(stamp, epoch)
	if age == 0 {
		return stamp
	}
	return epoch<<stampCountBits | min(freq+1, stampCountMax)
}

// touch counts a read at epoch into the stamp, storing only if it moved.
func (p *pair) touch(epoch uint32) {
	old := p.touched.Load()
	if stamp := stampTouch(old, epoch); stamp != old {
		p.touched.Store(stamp)
	}
}

// PairOverhead is the bytes charged per live entry beyond the value
// bytes. It is accounting, not a layout: what an entry really costs beside
// its bytes is the pair's 8-byte header (16 with a deadline), the
// allocator's rounding of it to a size class, and its share of the index —
// a 16-byte slot of a 64-byte bucket at a load of a quarter to two entries
// per bucket, a 24-byte chain node, or a skip-list tower of 48 bytes and
// up. 56 was sized when a value also cost an 8-byte arena slot; that slot
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
// hash-routed index — examples/kvstore runs that in-process and the
// server package serves it over TCP — and NewSortedStrings over a sorted
// one. Distinct string keys whose hashes collide alias to one entry; with
// 64-bit FNV-1a that needs ~2^32 live keys to become likely.
//
// Value ownership: every write (Set, SetEX, MSetHashed) copies its value
// into the store's own object and retains nothing of the argument, so a
// caller may pass a view over a buffer it reuses as soon as the call
// returns. Every read (Get, MGet, Scan, Min/Max) returns a string that
// aliases that immutable object: it costs no copy and stays valid and
// unchanged for as long as the caller holds it, whatever happens to the
// key. Expire and Persist replace the pair, copying the value bytes into
// the replacement.
type Strings struct {
	// Set once by init and read by every operation: the index, the byte
	// counter, the injectable clock (nil = coarse time.Now cached in
	// cachedNow) and the byte budget (0 = unbounded). They own their cache
	// line — the words below are stored by writers and by governance, and a
	// GET must not take a miss on this line for it.
	index  *Store[*pair]
	bytes  *core.Striped
	clock  func() int64
	budget int64

	_ core.CacheLinePad
	governed
	_ core.CacheLinePad

	// The sweeper's state, under maintMu (see maintainPass): its position
	// — a shard and that shard's cursor — its rng, and the page the sweep
	// reads entries into.
	maintMu     sync.Mutex
	sweepShard  uint64
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
	// cachedNow is the coarse clock, refreshed once per maintenance pass,
	// by every TTL-setting op and by every eviction hand.
	cachedNow atomic.Int64
	// epoch is the eviction-stamp epoch: passes and hands advance it,
	// stamps keep its low 24 bits.
	epoch        atomic.Uint32
	expiredLazy  atomic.Uint64
	expiredSwept atomic.Uint64
	evicted      atomic.Uint64
	// handRng seeds the write path's lock-free eviction hands (see
	// evictHand): each hand derives a private xorshift state from one
	// atomic bump, so concurrent hands probe independent entries without
	// sharing the sweeper's maintMu-guarded rng.
	handRng atomic.Uint64
	// epochTick is the clock reading of the last epoch tick;
	// hands CAS it forward every epochPeriod (see evictHand), passes
	// overwrite it.
	epochTick atomic.Int64
}

// NewStrings returns a string store over a hash-routed index; the options
// configure the index exactly as in New, and WithClock/WithByteBudget
// configure the memory-governance layer (ttl.go).
func NewStrings(opts ...Option) *Strings {
	o := newOptions(opts)
	s := new(Strings)
	s.init(newHashed[*pair](o), o)
	return s
}

// init wires the layer over index, in place (the scheduler keeps the
// pointer): the byte counter, the governance options, the sweep rng and
// cached clock seeded, and the governance pass registered on the index's
// shared scheduler when one exists — WithoutMaintenance stores are driven
// via Quiesce.
func (s *Strings) init(index *Store[*pair], o options) {
	s.index, s.bytes = index, core.NewStriped(0)
	s.clock, s.budget = o.clock, o.byteBudget
	s.sweepRng = 0x9E3779B97F4A7C15
	s.handRng.Store(0x6A09E667F3BCC909)
	if s.clock == nil {
		s.cachedNow.Store(time.Now().UnixNano())
	}
	if index.sched != nil {
		index.sched.Register(ttlMaintainer{s})
	}
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

// charge adds a pair's footprint to the byte counter — value bytes plus
// pairOverhead — as the pair is published under k; credit takes it off
// again, in whichever call unmapped the pair.
func (s *Strings) charge(k uint64, p *pair) { s.bytes.Add(k, int64(p.size())+pairOverhead) }
func (s *Strings) credit(k uint64, p *pair) { s.bytes.Add(k, -int64(p.size())-pairOverhead) }

// live is the read path's one judgment over what the index returned for k:
// a pair whose deadline has passed is a miss, and retires through the same
// conditional-delete splice the sweeper uses. TTL-less pairs pay one
// predictable branch. Every accessor — scalar, batched, scanned — goes
// through here.
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

// set is the scalar write under Set and SetEX: pair first, index publish
// after, the displaced pair credited back — its stamp handed to the
// successor, under a budget — and an eviction hand lent if the insert
// pushed the store past its watermark.
func (s *Strings) set(k uint64, value string, deadline int64) bool {
	epoch := s.epoch.Load()
	p := newPair(value, deadline, stampNew(epoch))
	s.charge(k, p)
	old, replaced := s.index.Set(k, p)
	live := replaced && s.displaced(k, p, old, epoch)
	s.evictHand()
	return live
}

// displaced settles a pair a write of p under k just unmapped: its bytes
// are credited back and, under a budget, its stamp is handed to p as one
// more touch — how often a key is used is a property of the key, and a
// write must not reset it (a reader's touch lost to this store is a lost
// count). It reports whether old was live; one that had already expired
// made the write a fresh insert, and counts as lazily expired.
func (s *Strings) displaced(k uint64, p, old *pair, epoch uint32) bool {
	if s.budget != 0 {
		p.touched.Store(stampTouch(old.touched.Load(), epoch))
	}
	return s.unmapped(k, old)
}

// unmapped credits back a pair just unmapped from the index — replaced or
// deleted — and reports whether it was live: an expired one was already
// observably absent, and counts as lazily expired.
func (s *Strings) unmapped(k uint64, old *pair) bool {
	s.credit(k, old)
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

// GetHashed is Get for a pre-hashed key: index → pair, plus the eviction
// stamp's touch when a byte budget is in force.
func (s *Strings) GetHashed(k uint64) (string, bool) {
	p := s.lookup(k)
	if p == nil {
		return "", false
	}
	if s.budget != 0 {
		p.touch(s.epoch.Load())
	}
	return p.val(), true
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

// batchStrScratch pools the per-batch slices of the batch operations, the
// same treatment the index's own batch routing gets from batchScratch — a
// batched path that allocates per call would undo it.
type batchStrScratch struct {
	hashes     []uint64
	pairs, old []*pair
}

var strScratchPool = sync.Pool{New: func() any { return new(batchStrScratch) }}

// grabStrScratch sizes the scratch for an n-key batch and returns it.
func grabStrScratch(n int) *batchStrScratch {
	sc := strScratchPool.Get().(*batchStrScratch)
	if cap(sc.hashes) < n {
		sc.hashes = make([]uint64, n)
		sc.pairs = make([]*pair, n)
		sc.old = make([]*pair, n)
	}
	return sc
}

// release returns the scratch of an n-key batch to the pool, its pair
// slots cleared: a pooled scratch must not keep a value alive.
func (sc *batchStrScratch) release(n int) {
	clear(sc.pairs[:n])
	clear(sc.old[:n])
	strScratchPool.Put(sc)
}

// MGet looks up every keys[i], storing the value into vals[i] and
// presence into found[i]; vals and found must be at least len(keys) long.
func (s *Strings) MGet(keys []string, vals []string, found []bool) {
	sc := grabStrScratch(len(keys))
	defer sc.release(len(keys))
	hashes := sc.hashes[:len(keys)]
	for i, key := range keys {
		hashes[i] = HashKey(key)
	}
	s.mget(hashes, vals, found, sc.pairs[:len(keys)])
}

// MGetHashed is MGet for pre-hashed keys (see HashKeyBytes): protocol
// parsers hash straight out of their read buffers and hand the batch
// here, so key bytes never escape the parser's views.
func (s *Strings) MGetHashed(hashes []uint64, vals []string, found []bool) {
	sc := grabStrScratch(len(hashes))
	defer sc.release(len(hashes))
	s.mget(hashes, vals, found, sc.pairs[:len(hashes)])
}

// mget is the shared body of MGet/MGetHashed: one shard-batched index
// pass, then each fetched pair through the read judgment (which retires an
// expired one).
func (s *Strings) mget(hashes []uint64, vals []string, found []bool, pairs []*pair) {
	s.index.MGet(hashes, pairs, found)
	var epoch uint32
	if s.budget != 0 {
		epoch = s.epoch.Load()
	}
	for i, k := range hashes {
		p := s.live(k, pairs[i], found[i])
		if p == nil {
			vals[i], found[i] = "", false
			continue
		}
		if s.budget != 0 {
			p.touch(epoch)
		}
		vals[i], found[i] = p.val(), true
	}
}

// MSetHashed stores vals[i] under every pre-hashed keys[i], recording
// into replaced[i] whether a live value was overwritten, and returns the
// fresh-insert count. The pairs are built up front (a published pair is
// always a fully built one) and the index pass is shard-batched. replaced
// must be at least len(hashes) long. Duplicate hashes apply in order,
// exactly as sequential SetHashed calls.
func (s *Strings) MSetHashed(hashes []uint64, vals []string, replaced []bool) int {
	sc := grabStrScratch(len(hashes))
	defer sc.release(len(hashes))
	pairs, old := sc.pairs[:len(hashes)], sc.old[:len(hashes)]
	epoch := s.epoch.Load()
	for i, k := range hashes {
		pairs[i] = newPair(vals[i], 0, stampNew(epoch))
		s.charge(k, pairs[i])
	}
	inserted := s.index.MSetEach(hashes, pairs, old, replaced)
	for i, k := range hashes {
		if replaced[i] && !s.displaced(k, pairs[i], old[i], epoch) {
			replaced[i] = false
			inserted++
		}
	}
	s.evictHand()
	return inserted
}

// MDelHashed removes every pre-hashed keys[i], recording presence into
// found[i], and returns the hit count; found must be at least len(hashes)
// long. The index pass is shard-batched.
func (s *Strings) MDelHashed(hashes []uint64, found []bool) int {
	sc := grabStrScratch(len(hashes))
	defer sc.release(len(hashes))
	old := sc.old[:len(hashes)]
	deleted := s.index.MDelEach(hashes, old, found)
	for i, k := range hashes {
		if found[i] && !s.unmapped(k, old[i]) {
			found[i] = false
			deleted--
		}
	}
	return deleted
}
