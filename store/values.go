// The string layer: string values over the uint64 index core, one
// implementation under the hash-routed Strings and the range-partitioned
// SortedStrings alike. The index maps a key (a string key's 64-bit hash,
// or the uint64 key itself on the sorted store) to a *handle* — a slot
// number in a chunked value arena — and the arena holds one atomic pointer
// per slot to an immutable pair: one pointer-free object holding the key
// hash, the deadline if the entry has one, and the value bytes. There is no
// lock anywhere on the GET/SET/DEL path; the read-under-reuse race that
// handle recycling creates is resolved the OPTIK way, by validation instead
// of pessimism:
//
//   - SET writes the pair first and publishes the slot through the index
//     after, so any slot a reader can reach holds a fully-built pair.
//   - Freed slots recycle through a lock-free OPTIK stack, so a GET can
//     hold a slot number while a concurrent DEL frees it and another SET
//     re-points it at a different key's pair.
//   - The GET therefore validates optimistically — does the pair's hash
//     still match the key I looked up? — and restarts through the index
//     when it does not, exactly how the tables' own readers validate
//     bucket versions instead of locking.

package store

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/optik-go/optik/ds/stack"
	"github.com/optik-go/optik/internal/core"
)

// pair is one stored value, header and bytes in a single allocation: the
// key hash it belongs to, the eviction stamp and the value length — then,
// in the same object, the n value bytes themselves. The struct is only the
// 16-byte header; newPair allocates it with its tail and val reads the tail
// back. An entry with a TTL carries one more word: the top bit of n
// (pairTTL) says the 8 bytes directly after the header are the absolute
// expiry deadline in the store clock's nanoseconds, and the value bytes
// follow that word instead of the header. An entry without one — most of
// them — pays nothing for the deadline it does not have.
//
//	no TTL:  | hash | touched, n        | value bytes ...
//	TTL:     | hash | touched, n|pairTTL | deadline | value bytes ...
//
// Nothing in the object is a pointer, so the collector marks a value and
// never scans it, and a reader that holds a slot's *pair is one load from
// the bytes instead of two. newPair, size, deadline and val are the only
// code that knows the layout.
//
// Pairs are immutable once published — replacing a value (or a deadline:
// Expire/Persist build a new pair, of the other shape if need be, and CAS
// the slot pointer) never mutates one in place — except for touched, which
// is atomic and advisory. A reader therefore never sees a pair change
// shape. They are GC-owned and never recycled: a string val handed out
// stays valid and unchanged for as long as anyone holds it.
type pair struct {
	hash uint64
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
func newPair(hash uint64, val string, deadline int64, stamp uint32) *pair {
	if len(val) > math.MaxInt32 {
		panic("store: value too large")
	}
	words, n := pairWords, uint32(len(val))
	if deadline != 0 {
		words, n = pairWords+1, n|pairTTL
	}
	obj := make([]uint64, words+(len(val)+7)/8)
	p := (*pair)(unsafe.Pointer(&obj[0]))
	p.hash, p.n = hash, n
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
// bytes: 24 bytes for the pair's header (what it occupies with a deadline;
// 16 without), the arena's 8-byte slot pointer, and a nominal 24-byte share
// of the index entry. Approximate by design — the byte budget governs order
// of magnitude, not malloc-exact accounting — and the same for both pair
// shapes, so Expire and Persist never move the counter.
// Exported so budget planners (the eviction workload, capacity math in
// operators' tooling) can convert between entry counts and budget bytes.
const PairOverhead = 56

// pairOverhead is the internal alias the value layer charges with.
const pairOverhead = PairOverhead

// Values is a growable arena of value slots addressed by the uint64
// handle the index stores. Slots are chunked so growth never moves
// published slots (a reader holding a slot number must be able to load
// its pointer with no coordination), and the chunk directory is fixed so
// reaching a slot is two indexed loads. Freed slots recycle through a
// lock-free OPTIK stack. All methods are safe for concurrent use.
type Values struct {
	chunks [valueDirSize]atomic.Pointer[valueChunk]
	next   atomic.Uint64
	free   *stack.Optik
	// bytes tracks the live footprint (value bytes + pairOverhead per
	// entry), charged at Put and released with the slot. Striped so the
	// hot Put/Release paths never serialize on one counter line.
	bytes *core.Striped
}

const (
	valueChunkBits = 12 // 4096 slots per chunk
	valueChunkSize = 1 << valueChunkBits
	valueDirSize   = 4096 // 16.7M live values
)

type valueChunk [valueChunkSize]atomic.Pointer[pair]

// NewValues returns an empty arena.
func NewValues() *Values {
	return &Values{free: stack.NewOptik(), bytes: core.NewStriped(0)}
}

// Put stores a fresh {hash, val} pair and returns its slot handle,
// recycling a freed slot when one is available. val is copied into the
// pair and not retained. The pair is visible as soon as the pointer store
// lands — before the caller publishes the slot through its index — so no
// reader can reach a half-built pair.
func (v *Values) Put(hash uint64, val string) uint64 {
	return v.put(hash, val, 0, 0)
}

// put is Put with the TTL deadline (0 = none) and the eviction stamp the
// pair is born with.
func (v *Values) put(hash uint64, val string, deadline int64, stamp uint32) uint64 {
	slot, ok := v.free.Pop()
	if !ok {
		slot = v.next.Add(1) - 1
		if slot >= valueDirSize*valueChunkSize {
			panic("store: value arena exhausted")
		}
	}
	ci := slot >> valueChunkBits
	c := v.chunks[ci].Load()
	for c == nil {
		// First touch of this chunk: one allocation, racing allocators
		// settle by CAS.
		v.chunks[ci].CompareAndSwap(nil, new(valueChunk))
		c = v.chunks[ci].Load()
	}
	c[slot&(valueChunkSize-1)].Store(newPair(hash, val, deadline, stamp))
	v.bytes.Add(slot, int64(len(val))+pairOverhead)
	return slot
}

// loadPair returns the pair currently in slot (nil before the slot's
// chunk exists, or once the slot is freed). Callers validate hash — and,
// with TTL in play, pointer identity.
func (v *Values) loadPair(slot uint64) *pair {
	c := v.chunks[slot>>valueChunkBits].Load()
	if c == nil {
		return nil
	}
	return c[slot&(valueChunkSize-1)].Load()
}

// casPair swaps slot's pair pointer from old to new. Pair pointers are
// never reused, so the compare is ABA-safe. The replacement MUST be
// equal in accounting terms (same hash, same value length):
// Release uncharges whatever pair it finds in the slot, and a racing
// size-changing swap would skew the byte counter.
func (v *Values) casPair(slot uint64, old, new *pair) bool {
	return v.chunks[slot>>valueChunkBits].Load()[slot&(valueChunkSize-1)].CompareAndSwap(old, new)
}

// Bytes returns the approximate live footprint in bytes: value bytes plus
// pairOverhead per live entry. Same non-linearizable contract as Len.
func (v *Values) Bytes() int64 { return v.bytes.Sum() }

// Release recycles a slot whose index entry has been removed or replaced.
// The slot's pair pointer is cleared: stale readers observe nil, report a
// miss and retry through their index (the same validate-and-retry they
// already run for a recycled hash), and — critically — the eviction
// sampler can tell a free slot from a live one. Leaving the dead pair in
// place would make every freed slot look like a perfect eviction victim
// (old epoch, never expiring) whose conditional delete can only fail,
// and the victim search would starve on its own leftovers. The releasing
// caller owns the unmapped slot, so the load-uncharge-clear sequence
// cannot race a recycling Put; the only concurrent swap possible is
// Expire/Persist's size-invariant casPair, which leaves the uncharge
// amount unchanged.
func (v *Values) Release(slot uint64) {
	v.uncharge(slot)
	v.free.Push(slot)
}

// ReleaseBatch recycles every slot in one splice onto the free list —
// the stack's single validate-and-lock commit covers the whole batch, so
// a pipelined burst of deletes pays one contended CAS instead of one per
// slot. Same visibility contract as Release.
func (v *Values) ReleaseBatch(slots []uint64) {
	for _, slot := range slots {
		v.uncharge(slot)
	}
	v.free.PushAll(slots)
}

// uncharge credits back the bytes a slot's resident pair was charged and
// clears the pair pointer (see Release for why freed slots must read nil).
func (v *Values) uncharge(slot uint64) {
	sp := &v.chunks[slot>>valueChunkBits].Load()[slot&(valueChunkSize-1)]
	if p := sp.Load(); p != nil {
		v.bytes.Add(slot, -(int64(p.size()) + pairOverhead))
		sp.Store(nil)
	}
}

// Allocated returns how many slots have ever been carved from the arena
// (monotone; recycled slots are not subtracted).
func (v *Values) Allocated() uint64 { return v.next.Load() }

// FreeLen returns the current free-list length (racy; for monitoring).
func (v *Values) FreeLen() int { return v.free.Len() }

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
// value handles in a Values arena, with per-entry TTL and byte-budget
// eviction (ttl.go). The *Hashed methods are the layer itself — they take
// the index key directly; the string-keyed forms hash first. NewStrings
// builds it over the hash-routed Store — examples/kvstore runs that
// in-process and the server package serves it over TCP — and
// NewSortedStrings over an Ordered index. Distinct string keys whose
// hashes collide alias to one entry; with 64-bit FNV-1a that needs ~2^32
// live keys to become likely, far beyond the arena's capacity.
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
	// Set once by init and read by every operation: the index, the arena,
	// the injectable clock (nil = coarse time.Now cached in cachedNow) and
	// the byte budget (0 = unbounded). They own their cache line — the
	// words below are stored by writers and by governance, and a GET must
	// not take a miss on this line for it.
	index  *Store
	values *Values
	clock  func() int64
	budget int64

	_ core.CacheLinePad
	governed
	_ core.CacheLinePad

	// The sweeper's cursor and rng, under maintMu (see maintainPass).
	maintMu     sync.Mutex
	sweepCursor uint64
	sweepRng    uint64
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
	// atomic bump, so concurrent hands probe independent slots without
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
	s := new(Strings)
	s.init(New(opts...), opts)
	return s
}

// init wires the layer over index, in place (the scheduler keeps the
// pointer): a fresh arena, the governance options, the sweep rng and
// cached clock seeded, and the governance pass registered on the index's
// shared scheduler when one exists — WithoutMaintenance stores are driven
// via Quiesce.
func (s *Strings) init(index *Store, opts []Option) {
	o := newOptions(opts)
	s.index, s.values = index, NewValues()
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
func (s *Strings) Index() *Store { return s.index }

// Values exposes the underlying arena for stats aggregation.
func (s *Strings) Values() *Values { return s.values }

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

// read is the layer's one validated read — the OPTIK shape in miniature.
// Given an index lookup's outcome for k (slot, ok) it loads the arena pair
// and validates it: a pair that no longer belongs to k means a concurrent
// SET or DEL recycled the slot under us, and the read restarts through the
// index — each lap rides on another operation's progress, the same
// obstruction-freedom argument as the tables' own readers. The deadline is
// validated lazily right where the hash is: an expired pair is a miss, and
// the dead entry retires through the same conditional-delete splice the
// sweeper uses. TTL-less pairs pay one predictable branch. Returns k's
// slot and live pair, or a nil pair on a miss. Every accessor — scalar,
// batched, scanned — goes through here: the scalar ones pass a fresh
// index.Get, the batched ones the slot their index pass already fetched.
func (s *Strings) read(k, slot uint64, ok bool) (uint64, *pair) {
	for ; ok; slot, ok = s.index.Get(k) {
		p := s.values.loadPair(slot)
		if p == nil || p.hash != k {
			continue
		}
		if s.expiredNow(p) {
			s.retire(slot, p, &s.expiredLazy)
			break
		}
		return slot, p
	}
	return 0, nil
}

// lookup is read from the top: k's slot and live pair, or a nil pair.
func (s *Strings) lookup(k uint64) (uint64, *pair) {
	slot, ok := s.index.Get(k)
	return s.read(k, slot, ok)
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

// set is the scalar write under Set and SetEX: arena pair first, index
// publish after, the displaced slot recycled — its stamp handed to the
// successor, under a budget — and an eviction hand lent if the insert
// pushed the store past its watermark.
func (s *Strings) set(k uint64, value string, deadline int64) bool {
	epoch := s.epoch.Load()
	slot := s.values.put(k, value, deadline, stampNew(epoch))
	old, replaced := s.index.Set(k, slot)
	live := replaced && !s.displacedExpired(old)
	if replaced {
		if s.budget != 0 {
			s.inherit(k, old, slot, epoch)
		}
		s.values.Release(old)
	}
	s.evictHand()
	return live
}

// inherit hands the stamp of the pair a write to k just displaced to the pair
// that replaced it, as one more touch: how often a key is used is a property
// of the key, and a write must not reset it. The caller still owns the
// unmapped old slot, so its pair is there. The new slot is already published
// and may have been evicted or recycled since, hence the nil and hash checks;
// k's own later pair is as good a recipient, and a reader's touch lost to
// this store is a lost count.
func (s *Strings) inherit(k, old, slot uint64, epoch uint32) {
	if to := s.values.loadPair(slot); to != nil && to.hash == k {
		to.touched.Store(stampTouch(s.values.loadPair(old).touched.Load(), epoch))
	}
}

// displacedExpired reports whether the pair in a slot just unmapped from
// the index (replaced or deleted) had already expired — in which case the
// operation that displaced it observed a miss, not a hit — counting it as
// lazily expired. The caller owns the unmapped slot until it releases it,
// so the pair load cannot race a recycling Put.
func (s *Strings) displacedExpired(slot uint64) bool {
	p := s.values.loadPair(slot)
	if p == nil || !s.expiredNow(p) {
		return false
	}
	s.expiredLazy.Add(1)
	return true
}

// Get returns the value stored under key.
func (s *Strings) Get(key string) (string, bool) {
	return s.GetHashed(HashKey(key))
}

// GetHashed is Get for a pre-hashed key: the validated read, plus the
// eviction stamp's touch when a byte budget is in force.
func (s *Strings) GetHashed(k uint64) (string, bool) {
	_, p := s.lookup(k)
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
	if !ok {
		return false
	}
	live := !s.displacedExpired(old)
	s.values.Release(old)
	return live
}

// batchStrScratch pools the per-batch hash/slot slices of the batch
// operations, the same treatment the index's own batch routing gets from
// batchScratch — a batched path that allocates per call would undo it.
type batchStrScratch struct {
	hashes []uint64
	slots  []uint64
	old    []uint64
}

var strScratchPool = sync.Pool{New: func() any { return new(batchStrScratch) }}

// grabStrScratch sizes the scratch for an n-key batch and returns it.
func grabStrScratch(n int) *batchStrScratch {
	sc := strScratchPool.Get().(*batchStrScratch)
	if cap(sc.hashes) < n {
		sc.hashes = make([]uint64, n)
		sc.slots = make([]uint64, n)
		sc.old = make([]uint64, n)
	}
	return sc
}

// MGet looks up every keys[i], storing the value into vals[i] and
// presence into found[i]; vals and found must be at least len(keys) long.
func (s *Strings) MGet(keys []string, vals []string, found []bool) {
	sc := grabStrScratch(len(keys))
	defer strScratchPool.Put(sc)
	hashes := sc.hashes[:len(keys)]
	for i, key := range keys {
		hashes[i] = HashKey(key)
	}
	s.mget(hashes, vals, found, sc.slots[:len(keys)])
}

// MGetHashed is MGet for pre-hashed keys (see HashKeyBytes): protocol
// parsers hash straight out of their read buffers and hand the batch
// here, so key bytes never escape the parser's views.
func (s *Strings) MGetHashed(hashes []uint64, vals []string, found []bool) {
	sc := grabStrScratch(len(hashes))
	defer strScratchPool.Put(sc)
	s.mget(hashes, vals, found, sc.slots[:len(hashes)])
}

// mget is the shared body of MGet/MGetHashed: one shard-batched index
// pass, then each fetched slot through the validated read (which restarts
// a recycled one through the scalar path and retires an expired one).
func (s *Strings) mget(hashes []uint64, vals []string, found []bool, slots []uint64) {
	s.index.MGet(hashes, slots, found)
	var epoch uint32
	if s.budget != 0 {
		epoch = s.epoch.Load()
	}
	for i, k := range hashes {
		_, p := s.read(k, slots[i], found[i])
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
// fresh-insert count. The arena writes happen up front (a published slot
// always holds a fully-built pair), the index pass is shard-batched, and
// every replaced slot recycles through one batch splice onto the free
// list. replaced must be at least len(hashes) long. Duplicate hashes
// apply in order, exactly as sequential SetHashed calls.
func (s *Strings) MSetHashed(hashes []uint64, vals []string, replaced []bool) int {
	sc := grabStrScratch(len(hashes))
	defer strScratchPool.Put(sc)
	slots, old := sc.slots[:len(hashes)], sc.old[:len(hashes)]
	epoch := s.epoch.Load()
	for i, h := range hashes {
		slots[i] = s.values.put(h, vals[i], 0, stampNew(epoch))
	}
	inserted := s.index.MSetEach(hashes, slots, old, replaced)
	if s.budget != 0 {
		for i, h := range hashes {
			if replaced[i] {
				s.inherit(h, old[i], slots[i], epoch)
			}
		}
	}
	// The slots scratch is index-owned now and no longer needed here: the
	// displaced handles compact into it for the splice.
	inserted += s.releaseDisplaced(old, replaced, slots[:0])
	s.evictHand()
	return inserted
}

// MDelHashed removes every pre-hashed keys[i], recording presence into
// found[i], and returns the hit count; found must be at least len(hashes)
// long. The index pass is shard-batched and the freed value slots recycle
// in one batch splice.
func (s *Strings) MDelHashed(hashes []uint64, found []bool) int {
	sc := grabStrScratch(len(hashes))
	defer strScratchPool.Put(sc)
	old := sc.old[:len(hashes)]
	deleted := s.index.MDelEach(hashes, old, found)
	return deleted - s.releaseDisplaced(old, found, sc.slots[:0])
}

// releaseDisplaced is the batch form of the scalar paths' displaced-slot
// handling: every old[i] with hit[i] set was just unmapped from the index
// and recycles in one free-list splice (rel is scratch to compact them
// into). A displaced pair that had already expired was observably absent
// — its hit[i] flips to false, exactly as the scalar call reports it —
// and the return value counts those.
func (s *Strings) releaseDisplaced(old []uint64, hit []bool, rel []uint64) (expired int) {
	for i, slot := range old {
		if !hit[i] {
			continue
		}
		if s.displacedExpired(slot) {
			hit[i] = false
			expired++
		}
		rel = append(rel, slot)
	}
	s.values.ReleaseBatch(rel)
	return expired
}
