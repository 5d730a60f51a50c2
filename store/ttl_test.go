package store

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/internal/rng"
)

// testClock is the injected deterministic clock every TTL test drives:
// time moves only when the test says so, so expiry behavior reproduces
// exactly — no sleeps anywhere in this file.
type testClock struct{ now atomic.Int64 }

func newTestClock(start int64) *testClock {
	c := &testClock{}
	c.now.Store(start)
	return c
}

func (c *testClock) fn() func() int64 { return c.now.Load }
func (c *testClock) advance(d int64)  { c.now.Add(d) }
func (c *testClock) set(t int64)      { c.now.Store(t) }

// ttlRef is the reference model the property test checks the store
// against: a plain map of value+deadline, normalized so an entry past
// its deadline is absent.
type ttlRef struct {
	m   map[string]ttlRefEntry
	now func() int64
}

type ttlRefEntry struct {
	val      string
	deadline int64 // 0 = no TTL
}

func newTTLRef(now func() int64) *ttlRef {
	return &ttlRef{m: make(map[string]ttlRefEntry), now: now}
}

func (r *ttlRef) live(key string) (ttlRefEntry, bool) {
	e, ok := r.m[key]
	if !ok {
		return e, false
	}
	if e.deadline != 0 && e.deadline <= r.now() {
		delete(r.m, key)
		return e, false
	}
	return e, true
}

func (r *ttlRef) set(key, val string) bool {
	_, lived := r.live(key)
	r.m[key] = ttlRefEntry{val: val}
	return lived
}

func (r *ttlRef) setEX(key, val string, deadline int64) bool {
	_, lived := r.live(key)
	r.m[key] = ttlRefEntry{val: val, deadline: deadline}
	return lived
}

func (r *ttlRef) get(key string) (string, bool) {
	e, ok := r.live(key)
	if !ok {
		return "", false
	}
	return e.val, true
}

func (r *ttlRef) del(key string) bool {
	_, lived := r.live(key)
	delete(r.m, key)
	return lived
}

func (r *ttlRef) expireAt(key string, deadline int64) bool {
	e, lived := r.live(key)
	if !lived {
		return false
	}
	if deadline <= 0 {
		deadline = 1
	}
	e.deadline = deadline
	r.m[key] = e
	return true
}

func (r *ttlRef) persist(key string) bool {
	e, lived := r.live(key)
	if !lived || e.deadline == 0 {
		return false
	}
	e.deadline = 0
	r.m[key] = e
	return true
}

func (r *ttlRef) ttl(key string) int64 {
	e, lived := r.live(key)
	if !lived {
		return -2
	}
	if e.deadline == 0 {
		return -1
	}
	return (e.deadline - r.now() + nsPerSec - 1) / nsPerSec
}

// stringsCtors are the string layer's two constructors. The layer is one
// body over either index, so every TTL and eviction suite below runs
// against both rather than keeping an ordered twin: the sorted row drives
// the same string-keyed surface through the embedded Strings (the hashed
// keys land in its one skip list like any other uint64s).
var stringsCtors = []struct {
	name string
	new  func(...Option) *Strings
}{
	{"hash", NewStrings},
	{"sorted", func(opts ...Option) *Strings { return &NewSortedStrings(opts...).Strings }},
}

// eachStrings runs body once per constructor.
func eachStrings(t *testing.T, body func(*testing.T, func(...Option) *Strings)) {
	for _, c := range stringsCtors {
		t.Run(c.name, func(t *testing.T) { body(t, c.new) })
	}
}

// TestTTLProperty drives randomized TTL op sequences against the
// reference model under the injected clock, checking every return value
// and, periodically, full observable equivalence over the key space.
func TestTTLProperty(t *testing.T) { eachStrings(t, testTTLProperty) }

func testTTLProperty(t *testing.T, newStrings func(...Option) *Strings) {
	for seed := uint64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			clk := newTestClock(1_000_000_000)
			s := newStrings(WithClock(clk.fn()), WithShardBuckets(16), WithoutMaintenance())
			ref := newTTLRef(clk.fn())
			r := rng.NewXorshift(seed)
			const keySpace = 32
			key := func() string { return fmt.Sprintf("k%02d", r.Intn(keySpace)) }
			for step := 0; step < 20_000; step++ {
				switch op := r.Intn(100); {
				case op < 20: // Get
					k := key()
					gv, gok := s.Get(k)
					wv, wok := ref.get(k)
					if gok != wok || gv != wv {
						t.Fatalf("step %d: Get(%s) = (%q,%v), want (%q,%v)", step, k, gv, gok, wv, wok)
					}
				case op < 40: // Set (clears TTL)
					k, v := key(), fmt.Sprintf("v%d", step)
					if got, want := s.Set(k, v), ref.set(k, v); got != want {
						t.Fatalf("step %d: Set(%s) replaced = %v, want %v", step, k, got, want)
					}
				case op < 55: // SetEX
					k, v := key(), fmt.Sprintf("x%d", step)
					secs := int64(1 + r.Intn(5))
					want := ref.setEX(k, v, clk.now.Load()+secs*nsPerSec)
					if got := s.SetEX(k, v, secs); got != want {
						t.Fatalf("step %d: SetEX(%s) replaced = %v, want %v", step, k, got, want)
					}
				case op < 65: // ExpireAt (absolute, may be in the past)
					k := key()
					deadline := clk.now.Load() + int64(r.Intn(7)-2)*nsPerSec
					if got, want := s.ExpireAt(k, deadline), ref.expireAt(k, deadline); got != want {
						t.Fatalf("step %d: ExpireAt(%s,%d) = %v, want %v", step, k, deadline, got, want)
					}
				case op < 72: // Expire (relative; secs<=0 deletes)
					k := key()
					secs := int64(r.Intn(6) - 2)
					var want bool
					if secs <= 0 {
						want = ref.del(k)
					} else {
						want = ref.expireAt(k, clk.now.Load()+secs*nsPerSec)
					}
					if got := s.Expire(k, secs); got != want {
						t.Fatalf("step %d: Expire(%s,%d) = %v, want %v", step, k, secs, got, want)
					}
				case op < 79: // Persist
					k := key()
					if got, want := s.Persist(k), ref.persist(k); got != want {
						t.Fatalf("step %d: Persist(%s) = %v, want %v", step, k, got, want)
					}
				case op < 86: // TTL
					k := key()
					if got, want := s.TTL(k), ref.ttl(k); got != want {
						t.Fatalf("step %d: TTL(%s) = %d, want %d", step, k, got, want)
					}
				case op < 93: // Del
					k := key()
					if got, want := s.Del(k), ref.del(k); got != want {
						t.Fatalf("step %d: Del(%s) = %v, want %v", step, k, got, want)
					}
				default: // advance the clock up to 2.5s
					clk.advance(int64(r.Intn(2_500_000_000)))
				}
				if step%997 == 0 {
					for i := 0; i < keySpace; i++ {
						k := fmt.Sprintf("k%02d", i)
						gv, gok := s.Get(k)
						wv, wok := ref.get(k)
						if gok != wok || gv != wv {
							t.Fatalf("step %d: audit Get(%s) = (%q,%v), want (%q,%v)", step, k, gv, gok, wv, wok)
						}
					}
				}
			}
		})
	}
}

// TestTTLSemanticsEdges pins the documented edge semantics one by one.
func TestTTLSemanticsEdges(t *testing.T) { eachStrings(t, testTTLSemanticsEdges) }

func testTTLSemanticsEdges(t *testing.T, newStrings func(...Option) *Strings) {
	clk := newTestClock(1_000_000_000)
	s := newStrings(WithClock(clk.fn()), WithoutMaintenance())

	// Expire on a missing key reports false and creates nothing.
	if s.Expire("missing", 10) {
		t.Fatal("Expire(missing) = true")
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Expire(missing) materialized a key")
	}
	if got := s.TTL("missing"); got != -2 {
		t.Fatalf("TTL(missing) = %d, want -2", got)
	}

	// SetEX then plain Set: the overwrite clears the TTL.
	s.SetEX("k", "a", 5)
	if got := s.TTL("k"); got != 5 {
		t.Fatalf("TTL after SetEX = %d, want 5", got)
	}
	if !s.Set("k", "b") {
		t.Fatal("Set over live SetEX entry should report replaced")
	}
	if got := s.TTL("k"); got != -1 {
		t.Fatalf("TTL after overwriting Set = %d, want -1 (cleared)", got)
	}
	clk.advance(10 * nsPerSec)
	if v, ok := s.Get("k"); !ok || v != "b" {
		t.Fatalf("key with cleared TTL expired: (%q,%v)", v, ok)
	}

	// SetEX over an expired entry is a fresh insert.
	s.SetEX("e", "1", 1)
	clk.advance(2 * nsPerSec)
	if s.SetEX("e", "2", 1) {
		t.Fatal("SetEX over expired entry reported replaced")
	}

	// Expiry boundary: an entry is live strictly before its deadline and
	// a miss at it.
	s.SetEX("b", "v", 3)
	clk.advance(3*nsPerSec - 1)
	if _, ok := s.Get("b"); !ok {
		t.Fatal("entry expired before its deadline")
	}
	if got := s.TTL("b"); got != 1 {
		t.Fatalf("TTL 1ns before deadline = %d, want 1 (ceil)", got)
	}
	clk.advance(1)
	if _, ok := s.Get("b"); ok {
		t.Fatal("entry still live at its deadline")
	}
	if got := s.TTL("b"); got != -2 {
		t.Fatalf("TTL at deadline = %d, want -2", got)
	}

	// Del of an expired entry is a miss; Persist on TTL-less is false.
	s.SetEX("d", "v", 1)
	clk.advance(2 * nsPerSec)
	if s.Del("d") {
		t.Fatal("Del(expired) = true")
	}
	s.Set("p", "v")
	if s.Persist("p") {
		t.Fatal("Persist on TTL-less key = true")
	}
	if !s.Expire("p", 100) || !s.Persist("p") {
		t.Fatal("Expire+Persist round trip failed")
	}
	if got := s.TTL("p"); got != -1 {
		t.Fatalf("TTL after Persist = %d, want -1", got)
	}

	// Overflow seconds saturate instead of wrapping.
	s.Set("o", "v")
	if !s.Expire("o", math.MaxInt64/2) {
		t.Fatal("Expire with huge secs failed")
	}
	if got := s.TTL("o"); got <= 0 {
		t.Fatalf("TTL after saturating Expire = %d, want positive", got)
	}
	if _, ok := s.Get("o"); !ok {
		t.Fatal("saturated-TTL entry not live")
	}
}

// TestTTLMGetBatchExpiry pins the batched read path: expired entries are
// misses in MGet exactly as in Get, and live ones still serve.
func TestTTLMGetBatchExpiry(t *testing.T) { eachStrings(t, testTTLMGetBatchExpiry) }

func testTTLMGetBatchExpiry(t *testing.T, newStrings func(...Option) *Strings) {
	clk := newTestClock(1_000_000_000)
	s := newStrings(WithClock(clk.fn()), WithoutMaintenance())
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		if i%2 == 0 {
			s.SetEX(keys[i], "ephemeral", 1)
		} else {
			s.Set(keys[i], "durable")
		}
	}
	vals := make([]string, len(keys))
	found := make([]bool, len(keys))
	s.MGet(keys, vals, found)
	for i := range keys {
		if !found[i] {
			t.Fatalf("pre-expiry MGet missed %s", keys[i])
		}
	}
	clk.advance(2 * nsPerSec)
	s.MGet(keys, vals, found)
	for i := range keys {
		wantLive := i%2 == 1
		if found[i] != wantLive {
			t.Fatalf("post-expiry MGet %s: found=%v, want %v", keys[i], found[i], wantLive)
		}
		if wantLive && vals[i] != "durable" {
			t.Fatalf("post-expiry MGet %s = %q", keys[i], vals[i])
		}
	}
}

// TestTTLByteAccounting pins the byte counter: exact on a quiescent
// store, charged at put, credited at release — including releases driven
// by expiry and by the sweep.
func TestTTLByteAccounting(t *testing.T) { eachStrings(t, testTTLByteAccounting) }

func testTTLByteAccounting(t *testing.T, newStrings func(...Option) *Strings) {
	clk := newTestClock(1_000_000_000)
	s := newStrings(WithClock(clk.fn()), WithoutMaintenance())
	if got := s.BytesUsed(); got != 0 {
		t.Fatalf("empty store BytesUsed = %d", got)
	}
	s.Set("a", "0123456789") // 10 bytes
	want := int64(10 + pairOverhead)
	if got := s.BytesUsed(); got != want {
		t.Fatalf("BytesUsed after one Set = %d, want %d", got, want)
	}
	s.Set("a", "01234") // overwrite: 5 bytes replaces 10
	want = 5 + pairOverhead
	if got := s.BytesUsed(); got != want {
		t.Fatalf("BytesUsed after overwrite = %d, want %d", got, want)
	}
	// Expire/Persist rebuild the pair but never change its size.
	s.Expire("a", 100)
	s.Persist("a")
	if got := s.BytesUsed(); got != want {
		t.Fatalf("BytesUsed after Expire+Persist = %d, want %d", got, want)
	}
	s.Del("a")
	if got := s.BytesUsed(); got != 0 {
		t.Fatalf("BytesUsed after Del = %d, want 0", got)
	}
	// Lazy expiry retires the slot and credits its bytes back.
	s.SetEX("e", "xx", 1)
	clk.advance(2 * nsPerSec)
	s.Get("e")
	if got := s.BytesUsed(); got != 0 {
		t.Fatalf("BytesUsed after lazy expiry = %d, want 0", got)
	}
	// The sweep finds expired entries no reader ever touches again.
	for i := 0; i < 50; i++ {
		s.SetEX(fmt.Sprintf("s%d", i), "value", 1)
	}
	clk.advance(2 * nsPerSec)
	s.Quiesce()
	if got := s.BytesUsed(); got != 0 {
		t.Fatalf("BytesUsed after sweep = %d, want 0", got)
	}
	_, swept, _ := s.TTLStats()
	if swept == 0 {
		t.Fatal("sweep retired nothing")
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("Len after sweep = %d, want 0", got)
	}
}

// TestByteBudgetEviction pins the budget enforcement: SET past the
// budget, land at or under it — and prefer evicting cold entries over
// recently touched ones, on every one of 64 seeds of the sweep's and the
// write-path hands' rngs. Over the seeds each store keeps at most 0.15 of
// the cold set, and the sorted store no more of it than the hash store
// plus 0.05. The keys' FNV hashes fall in three clusters; on one skip
// list, a sample that drew the successor of a key uniform over the whole
// [Min, Max] gave the gap below the fill cluster ~81 % of its draws and
// the cold cluster ~0, and evicted no cold entry on any seed. The hash
// store's sample is uniform, and a uniform best-of-8 keeps ~0.09 of the
// cold set here (each fill SET evicts the oldest unread entry of its
// sample, a cold one if the sample holds any); the sorted store's strata
// favour the cold cluster, and it keeps none.
func TestByteBudgetEviction(t *testing.T) {
	const seeds = 64
	meanCold := map[string]float64{}
	for _, c := range stringsCtors {
		t.Run(c.name, func(t *testing.T) {
			var hotSum, coldSum float64
			for seed := uint64(1); seed <= seeds; seed++ {
				hot, cold := byteBudgetEviction(t, c.new, seed)
				if hot < cold+0.2 {
					t.Errorf("seed %d: approx-LRU not preferring cold: hot survival %.2f, cold survival %.2f", seed, hot, cold)
				}
				hotSum, coldSum = hotSum+hot, coldSum+cold
			}
			meanCold[c.name] = coldSum / seeds
			t.Logf("mean over %d seeds: hot survival %.2f, cold survival %.2f", seeds, hotSum/seeds, coldSum/seeds)
		})
	}
	for name, cold := range meanCold {
		if cold > 0.15 {
			t.Errorf("%s: mean cold survival %.3f, want at most 0.15", name, cold)
		}
	}
	if d := meanCold["sorted"] - meanCold["hash"]; len(meanCold) == 2 && d > 0.05 {
		t.Errorf("mean cold survival: sorted %.3f, hash %.3f; want sorted at most hash + 0.05", meanCold["sorted"], meanCold["hash"])
	}
}

// byteBudgetEviction runs one budget overrun with the store's rngs seeded
// from seed and returns the hot and the cold set's survival rates.
func byteBudgetEviction(t *testing.T, newStrings func(...Option) *Strings, seed uint64) (hotRate, coldRate float64) {
	clk := newTestClock(1_000_000_000)
	const (
		valLen = 100
		perKey = valLen + pairOverhead
		hot    = 50
		cold   = 40
		fill   = 60
		budget = int64(perKey * 100) // room for 100 of the 150 keys
	)
	s := newStrings(WithClock(clk.fn()), WithoutMaintenance(), WithByteBudget(budget))
	s.sweepRng = rng.Mix(seed) | 1
	s.handRng.Store(rng.Mix(^seed) | 1)
	val := make([]byte, valLen)
	for i := range val {
		val[i] = 'v'
	}
	// Phase 1, under budget: hot and cold together, then several epochs
	// in which only the hot set is touched — cold pairs keep their birth
	// stamp and age.
	for i := 0; i < hot; i++ {
		s.Set(fmt.Sprintf("hot%03d", i), string(val))
	}
	for i := 0; i < cold; i++ {
		s.Set(fmt.Sprintf("cold%03d", i), string(val))
	}
	for pass := 0; pass < 4; pass++ {
		s.Quiesce() // ticks the epoch; under budget, evicts nothing
		for i := 0; i < hot; i++ {
			s.Get(fmt.Sprintf("hot%03d", i))
		}
	}
	if _, _, evicted := s.TTLStats(); evicted != 0 {
		t.Fatalf("evicted %d entries while under budget", evicted)
	}
	// Phase 2: fresh filler takes the store to its budget and past; each
	// insert over it duels one victim inline, so the SETs alone hold the
	// budget, shedding the aged cold set first.
	for i := 0; i < fill; i++ {
		s.Set(fmt.Sprintf("fill%03d", i), string(val))
	}
	if got := s.BytesUsed(); got > budget {
		t.Fatalf("BytesUsed = %d after the SETs, want <= budget %d", got, budget)
	}
	_, _, evicted := s.TTLStats()
	if evicted == 0 {
		t.Fatal("nothing evicted")
	}
	s.Quiesce()
	if got := s.BytesUsed(); got > budget {
		t.Fatalf("post-Quiesce BytesUsed = %d, want <= budget %d", got, budget)
	}
	hotLive, coldLive := 0, 0
	for i := 0; i < hot; i++ {
		if _, ok := s.Get(fmt.Sprintf("hot%03d", i)); ok {
			hotLive++
		}
	}
	for i := 0; i < cold; i++ {
		if _, ok := s.Get(fmt.Sprintf("cold%03d", i)); ok {
			coldLive++
		}
	}
	return float64(hotLive) / float64(hot), float64(coldLive) / float64(cold)
}

// TestEvictionScanResistance pins what the read sketch buys: a hot set read
// in several epochs survives a one-pass insert of five times the budget in
// never-read keys. Under a recency-only order the scan is
// always the freshest thing in the store and the hot set goes first — every
// hot key is gone by the end. Both stores keep 99 % of the hot set: a
// never-read scan key loses its duel with any hot victim, and a pass
// evicts the least read entry of its sample.
func TestEvictionScanResistance(t *testing.T) { eachStrings(t, testEvictionScanResistance) }

func testEvictionScanResistance(t *testing.T, newStrings func(...Option) *Strings) {
	clk := newTestClock(1_000_000_000)
	const (
		valLen = 100
		hot    = 500
		scan   = 5000
		budget = int64((valLen + pairOverhead) * 1000)
	)
	s := newStrings(WithClock(clk.fn()), WithoutMaintenance(), WithByteBudget(budget))
	val := strings.Repeat("v", valLen)
	for i := 0; i < hot; i++ {
		s.Set(fmt.Sprintf("hot%03d", i), val)
	}
	for epoch := 0; epoch < 8; epoch++ {
		s.Quiesce() // ticks the epoch
		for i := 0; i < hot; i++ {
			s.Get(fmt.Sprintf("hot%03d", i))
		}
	}
	for i := 0; i < scan; i++ {
		s.Set(fmt.Sprintf("scan%04d", i), val)
		if i%100 == 99 {
			s.Quiesce()
		}
	}
	s.Quiesce()
	if got := s.BytesUsed(); got > budget {
		t.Fatalf("BytesUsed = %d, want <= budget %d", got, budget)
	}
	live := 0
	for i := 0; i < hot; i++ {
		if _, ok := s.Get(fmt.Sprintf("hot%03d", i)); ok {
			live++
		}
	}
	t.Logf("%d/%d hot keys survived a %d-key scan", live, hot, scan)
	if floor := hot * 99 / 100; live < floor {
		t.Fatalf("%d/%d hot keys survived the scan, want at least %d", live, hot, floor)
	}
}

// evictMix is a budgeted store without maintenance, filled behind the
// string layer's back: warm keys read eight times on the sketch, cold ones
// never. The sketch is sized for 2^18 entries and the budget then cut to
// one byte, so every round has work and the residents do not share
// counters. put charges and maps a fresh random key of the given
// temperature.
type evictMix struct {
	s    *Strings
	keys *rng.Xorshift
	val  string
}

func newEvictMix(newStrings func(...Option) *Strings) *evictMix {
	s := newStrings(WithoutMaintenance(), WithClock(func() int64 { return 1 }),
		WithByteBudget(PairOverhead<<18))
	s.budget = 1
	return &evictMix{s: s, keys: rng.NewXorshift(3), val: strings.Repeat("v", 16)}
}

func (m *evictMix) put(cold bool) uint64 {
	k := m.keys.Intn(1<<62) + 1
	for i := 0; i < 8 && !cold; i++ {
		m.s.sketch.add(k)
	}
	p := newPair(m.val, 0, m.s.epoch.Load())
	m.s.charge(k, p.size())
	m.s.index.Set(k, p)
	return k
}

// TestEachWriteLendsItsRound pins the round each kind of write lends on a
// store past its budget with no scheduler to evict for it, on both
// stores: a same-size overwrite and a restated SET add no bytes and evict
// nothing, however far over the store is; a scalar fresh SET duels one
// victim, so it evicts exactly one entry; a longer overwrite lends a raze
// round; and an MSET of a few fresh keys that takes the store only a
// little over its budget lends a raze round that brings it back.
func TestEachWriteLendsItsRound(t *testing.T) {
	const valLen, keep, extra = 100, 100, 10 // extra entries are past budget + budget/16
	const entry = valLen + PairOverhead
	budget := int64(keep * entry)
	val := strings.Repeat("v", valLen)
	eachStrings(t, func(t *testing.T, newStrings func(...Option) *Strings) {
		// over is a store of keep+extra unread entries under a budget of
		// keep, mapped behind the layer's back so that no write lends a
		// round while it fills.
		over := func(extra int) *Strings {
			s := newStrings(WithClock(func() int64 { return 1 }), WithoutMaintenance(), WithByteBudget(budget))
			for i := 0; i < keep+extra; i++ {
				k, p := HashKey(fmt.Sprintf("res%03d", i)), newPair(val, 0, s.epoch.Load())
				s.charge(k, p.size())
				s.index.Set(k, p)
			}
			return s
		}
		evicts := func(s *Strings, write func()) uint64 {
			_, _, before := s.TTLStats()
			write()
			_, _, after := s.TTLStats()
			return after - before
		}
		s := over(extra)
		defer s.Close()
		if n := evicts(s, func() { s.Set("res000", strings.Repeat("w", valLen)) }); n != 0 {
			t.Fatalf("a same-size overwrite on a store %d entries over its budget evicted %d entries, want 0", extra, n)
		}
		if n := evicts(s, func() { s.Set("res001", val) }); n != 0 {
			t.Fatalf("a restated SET evicted %d entries, want 0", n)
		}
		if n := evicts(s, func() { s.Set("new", val) }); n != 1 {
			t.Fatalf("a fresh SET over the budget evicted %d entries, want 1", n)
		}
		if n := evicts(s, func() { s.Set("res002", val+"w") }); n < 1 {
			t.Fatalf("a longer overwrite over the budget evicted %d entries, want at least 1", n)
		}

		m := over(0)
		defer m.Close()
		hashes := []uint64{HashKey("m1"), HashKey("m2"), HashKey("m3")}
		m.MSetHashed(hashes, []string{val, val, val}, make([]bool, len(hashes)))
		if used := m.BytesUsed(); used > budget+entry {
			t.Fatalf("an MSET of 3 fresh keys left the store at %d bytes, want at most the budget %d plus one entry", used, budget)
		}
	})
}

// admissionStore is a store at its byte budget of 100 entries, each of
// them read twice, with its rngs seeded from seed: every fresh SET from
// here on duels one victim read at least twice.
func admissionStore(t *testing.T, newStrings func(...Option) *Strings, seed uint64) (*Strings, string) {
	const valLen, keep = 100, 100
	budget := int64(keep * (valLen + PairOverhead))
	s := newStrings(WithClock(func() int64 { return 1 }), WithoutMaintenance(), WithByteBudget(budget))
	s.sweepRng = rng.Mix(seed) | 1
	s.handRng.Store(rng.Mix(^seed) | 1)
	val := strings.Repeat("v", valLen)
	for i := 0; i < keep; i++ {
		s.Set(fmt.Sprintf("res%03d", i), val)
	}
	for range 2 {
		for i := 0; i < keep; i++ {
			s.Get(fmt.Sprintf("res%03d", i))
		}
	}
	if _, _, evicted := s.TTLStats(); evicted != 0 || s.BytesUsed() != budget {
		t.Fatalf("setup: evicted %d, BytesUsed %d; want 0 and exactly the budget %d", evicted, s.BytesUsed(), budget)
	}
	return s, val
}

// TestAdmissionAdmitsAReadNewcomer pins the duel's first half: a key read
// more often than every resident — here three GETs, each a miss, against
// two — is admitted by its SET, and the SET evicts one resident in its
// place, so bytes_used stays at the budget. One newcomer per store, over
// 32 seeds: an admitted newcomer is a resident read three times, and the
// sorted store's sample, which can draw one entry many times, would
// otherwise pit later newcomers against it.
func TestAdmissionAdmitsAReadNewcomer(t *testing.T) {
	eachStrings(t, func(t *testing.T, newStrings func(...Option) *Strings) {
		for seed := uint64(1); seed <= 32; seed++ {
			s, val := admissionStore(t, newStrings, seed)
			for range 3 {
				s.Get("new")
			}
			s.Set("new", val)
			if _, ok := s.Get("new"); !ok {
				t.Fatalf("seed %d: a newcomer read 3 times was evicted by its own SET", seed)
			}
			if _, _, evicted := s.TTLStats(); evicted != 1 || s.EvictedNew() != 0 || s.BytesUsed() > s.ByteBudget() {
				t.Fatalf("seed %d: evicted %d (%d new), BytesUsed %d; want 1 (0 new) and at most %d",
					seed, evicted, s.EvictedNew(), s.BytesUsed(), s.ByteBudget())
			}
			s.Close()
		}
	})
}

// TestAdmissionEvictsAnUnreadNewcomer pins the duel's second half: a key
// read no more often than the residents — never, once, or as often as
// they were — is evicted by its own write, SET and SETEX alike. The write
// reports a fresh insert, bytes_used stays at the budget, a GET of the key
// misses, every resident stays, and the eviction counts on EvictedNew.
func TestAdmissionEvictsAnUnreadNewcomer(t *testing.T) {
	eachStrings(t, func(t *testing.T, newStrings func(...Option) *Strings) {
		for seed := uint64(1); seed <= 16; seed++ {
			s, val := admissionStore(t, newStrings, seed)
			for i, reads := range []int{0, 1, 2, 0, 1, 2} {
				key := fmt.Sprintf("new%03d", i)
				for range reads {
					s.Get(key)
				}
				if i < 3 {
					if s.Set(key, val) {
						t.Fatalf("seed %d: SET of newcomer %d reported a replacement", seed, i)
					}
				} else if s.SetEX(key, val, 100) {
					t.Fatalf("seed %d: SETEX of newcomer %d reported a replacement", seed, i)
				}
				if _, ok := s.Get(key); ok {
					t.Fatalf("seed %d: newcomer %d, read %d times against residents read twice, was admitted", seed, i, reads)
				}
				if _, _, evicted := s.TTLStats(); evicted != uint64(i+1) || s.EvictedNew() != uint64(i+1) || s.BytesUsed() > s.ByteBudget() {
					t.Fatalf("seed %d, newcomer %d: evicted %d (%d new), BytesUsed %d; want %d (%d new) and at most %d",
						seed, i, evicted, s.EvictedNew(), s.BytesUsed(), i+1, i+1, s.ByteBudget())
				}
			}
			if got := s.Len(); got != 100 {
				t.Fatalf("seed %d: %d residents left, want all 100", seed, got)
			}
			s.Close()
		}
	})
}

// countingShard wraps a store's shard and counts the index updates made
// through it: writes, and the conditional deletes that retire an entry.
type countingShard struct {
	shard[*pair]
	writes, condDels atomic.Int64
}

func (c *countingShard) Write(key uint64, p ds.Put[*pair]) (old, val *pair, replaced bool) {
	c.writes.Add(1)
	return c.shard.Write(key, p)
}

func (c *countingShard) DeleteIfValue(key uint64, val *pair) bool {
	c.condDels.Add(1)
	return c.shard.DeleteIfValue(key, val)
}

// TestAdmissionTurnsAwayEveryUnreadNewcomer pins that the duel is held
// before the write: one store takes 200 unread newcomers, SET and SETEX
// alternately, and turns every one away without touching the index — no
// index write and no conditional delete — so no newcomer can become a
// candidate of a later duel. Seeds 7, 8 and 17 are ones where, when the
// newcomer was stored first and dueled after, the sorted store's sample
// drew nothing but the newcomer itself in some duel, kept it, and then
// let later unread newcomers tie it at zero reads.
func TestAdmissionTurnsAwayEveryUnreadNewcomer(t *testing.T) {
	eachStrings(t, func(t *testing.T, newStrings func(...Option) *Strings) {
		for _, seed := range []uint64{7, 8, 17} {
			s, val := admissionStore(t, newStrings, seed)
			cs := &countingShard{shard: s.index.shard}
			s.index.shard = cs
			admitted := 0
			for i := range 200 {
				k := HashKey(fmt.Sprintf("new%03d", i))
				if i%2 == 0 && s.SetHashed(k, val) || i%2 == 1 && s.SetEXHashed(k, val, 100) {
					t.Fatalf("seed %d: the write of newcomer %d reported a replacement", seed, i)
				}
				if _, ok := s.index.Get(k); ok {
					admitted++
				}
			}
			if admitted != 0 || s.EvictedNew() != 200 || s.Len() != 100 || cs.writes.Load() != 0 || cs.condDels.Load() != 0 {
				t.Fatalf("seed %d: %d of 200 unread newcomers admitted, %d turned away, %d residents, %d index writes and %d conditional deletes; want 0, 200, 100, 0 and 0",
					seed, admitted, s.EvictedNew(), s.Len(), cs.writes.Load(), cs.condDels.Load())
			}
			s.Close()
		}
	})
}

// TestNoReaderSeesATurnedAwayValue races a reader's GETs of each newcomer
// key against that key's SETs, on a store whose residents are read as
// often as the sketch can count (counterMax) and whose sketch never
// halves, so every newcomer loses its duel. A turned-away write is never
// stored, so no GET may return it. A store that published the newcomer
// and evicted it after its duel would let a reader see the value in
// between.
func TestNoReaderSeesATurnedAwayValue(t *testing.T) {
	eachStrings(t, func(t *testing.T, newStrings func(...Option) *Strings) {
		const valLen, keep, sets = 100, 100, 8
		newcomers := 2000
		if testing.Short() {
			newcomers = 500
		}
		s := newStrings(WithoutMaintenance(), WithByteBudget(keep*(valLen+PairOverhead)))
		defer s.Close()
		val := strings.Repeat("v", valLen)
		for i := range keep {
			s.Set(fmt.Sprintf("res%03d", i), val)
		}
		s.sketch.left.Store(math.MaxInt64)
		for range counterMax {
			for i := range keep {
				s.Get(fmt.Sprintf("res%03d", i))
			}
		}
		// The reader GETs the key the writer names in cur, and names it in
		// ack once it has started, so every SET races a reader of its key.
		var cur, ack atomic.Int64
		cur.Store(-1)
		ack.Store(-1)
		var seen atomic.Int64
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				i := cur.Load()
				if i == int64(newcomers) {
					return
				}
				if i < 0 {
					runtime.Gosched()
					continue
				}
				ack.Store(i)
				if _, ok := s.Get(fmt.Sprintf("new%04d", i)); ok {
					seen.Add(1)
				}
				runtime.Gosched() // a lone processor runs the writer too
			}
		}()
		newVal := strings.Repeat("n", valLen)
		for i := range int64(newcomers) {
			cur.Store(i)
			for ack.Load() != i {
				runtime.Gosched()
			}
			for range sets {
				s.Set(fmt.Sprintf("new%04d", i), newVal)
			}
		}
		cur.Store(int64(newcomers))
		<-done
		if n := seen.Load(); n != 0 || s.EvictedNew() != uint64(newcomers*sets) {
			t.Fatalf("%d GETs returned a turned-away value; %d of %d SETs turned away; want 0 and all",
				n, s.EvictedNew(), newcomers*sets)
		}
	})
}

// TestOversizeValueIsTurnedAway pins the gate's limit: a fresh value whose
// charge alone exceeds the budget is turned away like a losing newcomer,
// however cold the residents are. A 10,000-byte budget holds fifty
// 200-byte entries exactly; a 20,000-byte SET, then a SETEX of the same,
// each report a fresh insert and are never stored, and even after a full
// pass every resident stays, with evicted and evicted_new at 1, then 2.
// Stored, the value would have had the pass evict the whole store to make
// room, and itself last.
func TestOversizeValueIsTurnedAway(t *testing.T) {
	eachStrings(t, func(t *testing.T, newStrings func(...Option) *Strings) {
		const entry, keep, budget = 200, 50, 10_000
		s := newStrings(WithClock(func() int64 { return 1 }), WithoutMaintenance(), WithByteBudget(budget))
		defer s.Close()
		val := strings.Repeat("v", entry-PairOverhead)
		for i := range keep {
			s.Set(fmt.Sprintf("res%03d", i), val)
		}
		if _, _, evicted := s.TTLStats(); evicted != 0 || s.BytesUsed() != budget {
			t.Fatalf("setup: evicted %d, BytesUsed %d; want 0 and exactly the budget %d", evicted, s.BytesUsed(), budget)
		}
		big := strings.Repeat("b", 2*budget)
		for n, write := range []func() bool{
			func() bool { return s.Set("big", big) },
			func() bool { return s.SetEX("big", big, 100) },
		} {
			if write() {
				t.Fatalf("write %d of the oversize value reported a replacement", n+1)
			}
			s.Quiesce()
			if _, ok := s.Get("big"); ok {
				t.Fatalf("write %d: a value larger than the budget was stored", n+1)
			}
			for i := range keep {
				if _, ok := s.index.Get(HashKey(fmt.Sprintf("res%03d", i))); !ok {
					t.Fatalf("write %d: resident %d was evicted for a value larger than the budget", n+1, i)
				}
			}
			if _, _, evicted := s.TTLStats(); evicted != uint64(n+1) || s.EvictedNew() != uint64(n+1) || s.BytesUsed() != budget {
				t.Fatalf("write %d: evicted %d (%d new), BytesUsed %d; want %d (%d new) and %d",
					n+1, evicted, s.EvictedNew(), s.BytesUsed(), n+1, n+1, budget)
			}
		}
	})
}

// TestAdmissionWriteOnlyKeepsNewest pins the duel's tie: in a store
// nothing reads, every count is 0, so every newcomer stays and the victim
// is the oldest entry of the sample. SETs of ten times the budget in keys,
// one per millisecond, leave the store at its budget holding every one of
// the last ten keys written and most of the last hundred, and next to
// nothing of the first thousand.
func TestAdmissionWriteOnlyKeepsNewest(t *testing.T) {
	eachStrings(t, func(t *testing.T, newStrings func(...Option) *Strings) {
		const valLen, keep, writes = 100, 100, 1000
		budget := int64(keep * (valLen + PairOverhead))
		clk := newTestClock(1_000_000_000)
		s := newStrings(WithClock(clk.fn()), WithoutMaintenance(), WithByteBudget(budget))
		defer s.Close()
		val := strings.Repeat("v", valLen)
		for i := 0; i < writes; i++ {
			clk.advance(epochPeriod)
			s.Set(fmt.Sprintf("w%04d", i), val)
		}
		if s.BytesUsed() > budget || s.EvictedNew() != 0 {
			t.Fatalf("BytesUsed %d, EvictedNew %d; want at most %d and 0", s.BytesUsed(), s.EvictedNew(), budget)
		}
		live := func(from, to int) (n int) {
			for i := from; i < to; i++ {
				if _, ok := s.index.Get(HashKey(fmt.Sprintf("w%04d", i))); ok {
					n++
				}
			}
			return n
		}
		newest, recent, old := live(writes-10, writes), live(writes-keep, writes), live(0, keep)
		t.Logf("live: %d of the last 10, %d of the last %d, %d of the first %d", newest, recent, keep, old, keep)
		if newest != 10 || recent < keep*3/4 || old > keep/20 {
			t.Fatalf("live: %d of the last 10, %d of the last %d, %d of the first %d; want 10, at least %d, at most %d",
				newest, recent, keep, old, keep, keep*3/4, keep/20)
		}
	})
}

// TestSketchSizeIsCapped pins the cap on the read sketch: a budget too
// large for any heap — WithByteBudget(MaxInt64) — allocates at most
// sketchMaxWords words more than the same store without a budget, and a
// store without a budget has no sketch.
func TestSketchSizeIsCapped(t *testing.T) {
	eachStrings(t, func(t *testing.T, newStrings func(...Option) *Strings) {
		// build measures a construction as the least of three after one
		// unmeasured warm-up, so neither a construction's first-use
		// allocations nor a runtime allocation that lands between the
		// memory readings counts against it.
		build := func(opts ...Option) (s *Strings, bytes uint64) {
			opts = append(opts, WithoutMaintenance())
			_, bytes = allocsPerRun(3, func() {
				if s != nil {
					s.Close()
				}
			}, func() { s = newStrings(opts...) })
			return s, bytes
		}
		plain, base := build()
		capped, bytes := build(WithByteBudget(math.MaxInt64))
		if plain.sketch != nil || len(capped.sketch.words) != sketchMaxWords {
			t.Fatalf("sketch without a budget: %v; words under MaxInt64: %d, want %d", plain.sketch != nil, len(capped.sketch.words), sketchMaxWords)
		}
		if extra := bytes - base; extra > 8*sketchMaxWords+1024 {
			t.Fatalf("WithByteBudget(MaxInt64) allocated %d bytes more than no budget, want at most %d", extra, 8*sketchMaxWords+1024)
		}
	})
}

// BenchmarkEvictRound times one raze round — the round an MSET or a longer
// overwrite lends — on hash and sorted stores of 2^17 residents, cold-rich
// (a half cold) and all warm. After each round, outside the timer, the
// store gets back as many warm and cold entries as the round evicted of
// each, so the mix holds steady. entries/round is the entries a round
// evicts: the cold ones its sample of K turns up, or its one fallback
// victim, which is all a round over warm residents evicts.
func BenchmarkEvictRound(b *testing.B) {
	for _, c := range stringsCtors {
		for _, mix := range []struct {
			name string
			cold int // per 10 residents
		}{{"cold-rich", 5}, {"all-warm", 0}} {
			b.Run(c.name+"/"+mix.name, func(b *testing.B) {
				m := newEvictMix(c.new)
				s := m.s
				defer s.Close()
				for i := 0; i < 1<<17; i++ {
					m.put(i%10 < mix.cold)
				}
				epoch := s.epoch.Load()
				rnd := uint64(0x9E3779B97F4A7C15)
				evicted := 0
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					warm := s.EvictedWarm()
					n := s.evictSample(&rnd, 1, epoch, 0)
					b.StopTimer()
					evicted += n
					warmN := int(s.EvictedWarm() - warm)
					for i := 0; i < n; i++ {
						m.put(i >= warmN)
					}
					b.StartTimer()
				}
				b.ReportMetric(float64(evicted)/float64(b.N), "entries/round")
			})
		}
	}
}

// TestReadSketch pins the sketch's arithmetic: a read raises a key's
// estimate by one until it saturates at 15, a saturated read stores nothing
// and is not counted toward the period, the read that ends the period is
// reported, halving takes every estimate to half of it rounded down, and
// the minimal increment leaves a hot key's counters alone when a key that
// shares some of them is read.
func TestReadSketch(t *testing.T) {
	sk := newSketch(PairOverhead * 16 * 1024)
	if len(sk.words) != 4096 {
		t.Fatalf("a budget of 16,384 entries sized %d words, want 4,096", len(sk.words))
	}
	const hot, cold = 7, 1 << 40
	for i := uint32(1); i <= 20; i++ {
		if sk.add(hot) {
			t.Fatalf("read %d ended a period of %d", i, sketchPeriod*4096)
		}
		if got := sk.count(hot); got != min(i, counterMax) {
			t.Fatalf("after %d reads count %d, want %d", i, got, min(i, counterMax))
		}
	}
	if left := sk.left.Load(); left != sketchPeriod*4096-counterMax {
		t.Fatalf("%d reads left in the period after 15 counted, want %d", left, sketchPeriod*4096-counterMax)
	}
	for range 3 {
		sk.add(cold)
	}
	if got := sk.count(cold); got != 3 {
		t.Fatalf("cold key: count %d after 3 reads, want 3", got)
	}
	sk.left.Store(2)
	if sk.add(cold) || !sk.add(cold) {
		t.Fatal("the read that takes the period to zero must be the one reported")
	}
	sk.halve(100)
	if h, c := sk.count(hot), sk.count(cold); h != counterMax/2 || c != 5/2 || sk.left.Load() != 100 {
		t.Fatalf("after halving: hot %d, cold %d, period %d; want %d, %d, 100", h, c, sk.left.Load(), counterMax/2, 5/2)
	}

	// Minimal increment: reads of a key that shares the hot key's word and
	// some, not all, of its counters raise only its own counters — the
	// shared ones, already above its count, stay where the hot key put them
	// — and it reads its own reads.
	sk = newSketch(0)
	hw, hsel := sk.slot(hot)
	sharing := 0
	for k := uint64(1); sharing < 20 && k < 1<<20; k++ {
		w, sel := sk.slot(k)
		same := 0
		for i := range 4 {
			if counterShift(sel, i) == counterShift(hsel, i) {
				same++
			}
		}
		if k == hot || w != hw || same == 0 || same == 4 {
			continue
		}
		sharing++
		clear(sk.words)
		for range 5 {
			sk.add(hot)
		}
		sk.add(k)
		sk.add(k)
		for i := range 4 {
			if got := hw.Load() >> counterShift(hsel, i) & counterMax; got != 5 {
				t.Fatalf("key %d, sharing %d of the hot key's counters, moved its counter %d to %d, want 5", k, same, i, got)
			}
		}
		if c := sk.count(k); c != 2 {
			t.Fatalf("key %d beside the hot key: count %d after 2 reads, want 2", k, c)
		}
	}
	if sharing == 0 {
		t.Fatal("no key shared some of the hot key's counters")
	}
}

// TestSketchKeepsColdKeysCold pins the sketch's size against the aliasing
// it exists to bound, at cache_churn's shape: a budget of a quarter of
// 400,000 entries of 128-byte values, 80,000 keys read 15 times each and
// 48,000 read once, the period disarmed so nothing halves. A key read once
// must rarely estimate 2 — that clears the raze bar and wins duels — and a
// key never read must rarely estimate 1, which beats an unread newcomer.
// One counter per entry, a quarter of the words, leaves 18.7 % and 23.1 %
// of them there.
func TestSketchKeepsColdKeysCold(t *testing.T) {
	const (
		budget              = 400_000 * (128 + PairOverhead) / 4
		hotN, onceN, neverN = 80_000, 48_000, 48_000
		hotReads            = 15
		oncePerRound        = onceN / hotReads
		maxShare            = 0.03
	)
	sk := newSketch(budget)
	sk.left.Store(math.MaxInt64)
	r := rng.NewXorshift(1)
	keys := func(n int) []uint64 {
		ks := make([]uint64, n)
		for i := range ks {
			ks[i] = clampHash(r.Next())
		}
		return ks
	}
	hot, once, never := keys(hotN), keys(onceN), keys(neverN)
	for round := range hotReads {
		for _, k := range hot {
			sk.add(k)
		}
		for _, k := range once[round*oncePerRound : (round+1)*oncePerRound] {
			sk.add(k)
		}
	}
	share := func(ks []uint64, atLeast uint32) float64 {
		n := 0
		for _, k := range ks {
			if sk.count(k) >= atLeast {
				n++
			}
		}
		return float64(n) / float64(len(ks))
	}
	t.Logf("%d words: %.1f %% of once-read keys estimate ≥ 2, %.1f %% of never-read keys ≥ 1",
		len(sk.words), 100*share(once, 2), 100*share(never, 1))
	if got := share(once, 2); got > maxShare {
		t.Errorf("%.1f %% of the keys read once estimate 2 or more, want at most %.0f %%", 100*got, 100*maxShare)
	}
	if got := share(never, 1); got > maxShare {
		t.Errorf("%.1f %% of the keys never read estimate 1 or more, want at most %.0f %%", 100*got, 100*maxShare)
	}
}

// TestSweepWaitsForADeadline pins the sweep's gate: a store no write has
// given a deadline holds nothing that can expire, so its governance passes
// examine no entry — the sweep cursor does not move — and the first SETEX
// opens the sweep, which retires that entry once it lapses, unread.
func TestSweepWaitsForADeadline(t *testing.T) {
	eachStrings(t, func(t *testing.T, newStrings func(...Option) *Strings) {
		clk := newTestClock(1_000_000)
		s := newStrings(WithClock(clk.fn()), WithoutMaintenance())
		defer s.Close()
		const n = 4 * sweepQuantum
		for k := uint64(1); k <= n; k++ {
			s.SetHashed(k, "v")
		}
		s.ExpireAtHashed(n+1, 1) // absent: stores no deadline
		for range 8 {
			s.Quiesce()
		}
		if s.sweepCursor != 0 || s.deadlines.Load() {
			t.Fatalf("passes over a store without deadlines moved the sweep cursor to %d (deadlines %v)", s.sweepCursor, s.deadlines.Load())
		}
		s.SetEXHashed(n/2, "ttl", 1)
		clk.advance(2 * nsPerSec)
		for range 2 * n / sweepQuantum {
			s.Quiesce()
		}
		lazy, swept, _ := s.TTLStats()
		if lazy != 0 || swept != 1 || s.Len() != n-1 {
			t.Fatalf("after the SETEX lapsed: %d swept, %d lazily expired, Len %d; want 1, 0, %d", swept, lazy, s.Len(), n-1)
		}
	})
}

// TestStampAge pins the recency stamp: a pair reads its age in epochs
// since its last touch, a stamp up to stampFuture epochs ahead of the
// reader reads age 0, a touch stores only a later epoch, and the
// comparison is modulo 2^32.
func TestStampAge(t *testing.T) {
	for _, c := range []struct {
		name         string
		stamp, epoch uint32
		age          uint32
	}{
		{"just touched", 7, 7, 0},
		{"one epoch old", 7, 8, 1},
		{"a thousand old", 7, 1007, 1000},
		{"from the future", 10, 7, 0},
		{"stampFuture ahead", 7 + stampFuture, 7, 0},
		{"further ahead is a wrapped stamp: oldest", 8 + stampFuture, 7, 1<<32 - stampFuture - 1},
		{"across the wrap", 1<<32 - 2, 3, 5},
	} {
		p := newPair("v", 0, c.stamp)
		if got := p.age(c.epoch); got != c.age {
			t.Errorf("%s: stamp %d at epoch %d reads age %d, want %d", c.name, c.stamp, c.epoch, got, c.age)
		}
		p.touch(c.epoch)
		want := c.epoch // a touch takes an older stamp to the reader's epoch
		if c.age == 0 {
			want = c.stamp // and leaves one of age 0 alone
		}
		if got := p.touched.Load(); got != want {
			t.Errorf("%s: a touch at epoch %d left stamp %d, want %d", c.name, c.epoch, got, want)
		}
	}
}

// TestOverwriteInheritsFrequency pins that a key's read count is the
// key's, not its pair's: no write — Set, SetEX, MSetHashed, Expire,
// Persist — moves it, neither does a DEL or the key's eviction, and a GET
// moves it whether it hits or misses. Writes do reset the recency stamp:
// a stored write's pair is born at the write's epoch, and Expire and
// Persist carry the stamp through. Without a budget there is no sketch at
// all.
func TestOverwriteInheritsFrequency(t *testing.T) { eachStrings(t, testOverwriteInheritsFrequency) }

func testOverwriteInheritsFrequency(t *testing.T, newStrings func(...Option) *Strings) {
	clk := newTestClock(1_000_000_000)
	k := HashKey("k")
	s := newStrings(WithClock(clk.fn()), WithoutMaintenance(), WithByteBudget(1<<20))
	freq := func() uint32 { return s.sketch.count(k) }
	stamp := func() uint32 { return s.lookup(k).touched.Load() }
	s.Set("k", "v0")
	if got := freq(); got != 0 {
		t.Fatalf("fresh key: freq %d, want 0", got)
	}
	for range 5 {
		s.epoch.Add(1)
		s.Get("k")
	}
	if freq() != 5 || stamp() != s.epoch.Load() {
		t.Fatalf("five GETs: freq %d stamp %d, want 5 and epoch %d", freq(), stamp(), s.epoch.Load())
	}
	for _, w := range []struct {
		name  string
		do    func()
		reset bool // the stamp is the write's epoch
	}{
		{"Set", func() { s.Set("k", "v2") }, true},
		{"SetEX", func() { s.SetEX("k", "v3", 100) }, true},
		{"MSetHashed", func() {
			s.MSetHashed([]uint64{HashKey("other"), k}, []string{"o", "v4"}, make([]bool, 2))
		}, true},
		{"Expire", func() { s.Expire("k", 100) }, false},
		{"Persist", func() { s.Persist("k") }, false},
	} {
		before := stamp()
		s.epoch.Add(1)
		w.do()
		if freq() != 5 {
			t.Fatalf("%s over a hot key: freq %d, want 5", w.name, freq())
		}
		if want := map[bool]uint32{true: s.epoch.Load(), false: before}[w.reset]; stamp() != want {
			t.Fatalf("%s: stamp %d, want %d", w.name, stamp(), want)
		}
	}
	if got := s.sketch.count(HashKey("other")); got != 0 {
		t.Fatalf("fresh key in a batch: freq %d, want 0", got)
	}
	s.Del("k")
	if _, ok := s.Get("k"); ok || freq() != 6 {
		t.Fatalf("GET after DEL: hit %v, freq %d; want a miss counted, 6", ok, freq())
	}

	// No budget: no sketch, and a GET leaves the stamp alone.
	u := newStrings(WithClock(clk.fn()), WithoutMaintenance())
	u.Set("k", "v0")
	u.epoch.Add(1)
	u.Get("k")
	if u.sketch != nil || u.lookup(k).touched.Load() != 0 {
		t.Fatalf("no budget: sketch %v, stamp %d after a GET; want none and 0", u.sketch != nil, u.lookup(k).touched.Load())
	}
}

// TestTTLDefaultClock exercises the uninjected path (time.Now)
// without depending on real time passing: a fresh store's TTL ops work
// and a TTL far in the future stays live.
func TestTTLDefaultClock(t *testing.T) {
	s := NewStrings(WithoutMaintenance())
	s.SetEX("k", "v", 3600)
	if v, ok := s.Get("k"); !ok || v != "v" {
		t.Fatalf("Get = (%q,%v)", v, ok)
	}
	if got := s.TTL("k"); got <= 0 || got > 3600 {
		t.Fatalf("TTL = %d, want (0,3600]", got)
	}
	if !s.Expire("k", -1) {
		t.Fatal("Expire(k,-1) should delete and report presence")
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("key survived Expire(-1)")
	}
}

// TestMemoryReturnsToFloor pins aim 3's "memory returns to floor" for the
// values: a store that held 20,000 values of 4 KiB and gave them all up —
// by DEL, by the expiry sweep, or by eviction after its budget was cut —
// holds, after a collection, no more than 10% over the empty store plus
// 16 bytes per entry it held — less than any index node, so a node or
// tower kept reachable after its delete (on a free list, say) shows. The
// hash table is provisioned so it never resizes: a delete must
// clear the inline slot's value word itself, because no shrink will throw
// the slab away. A value word that survives its entry — an inline slot
// left set, a node or tower still reachable and pointing at its pair —
// pins 4 KiB per entry, and the heap ends tens of megabytes over.
func TestMemoryReturnsToFloor(t *testing.T) { eachStrings(t, testMemoryReturnsToFloor) }

func testMemoryReturnsToFloor(t *testing.T, newStrings func(...Option) *Strings) {
	const n, size, indexFloor = 20_000, 4096, 16
	val := strings.Repeat("v", size)
	key := func(i uint64) uint64 { return i*0x9E3779B97F4A7C15>>1 + 1 } // spread over the key range
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	drain := func(s *Strings) {
		for i := 0; i < 1000 && s.Len() > 0; i++ {
			s.Quiesce()
		}
	}
	for _, way := range []struct {
		name   string
		fill   func(s *Strings, k uint64)
		remove func(s *Strings, clk *testClock)
	}{
		{"DEL", func(s *Strings, k uint64) { s.SetHashed(k, val) }, func(s *Strings, _ *testClock) {
			for i := uint64(1); i <= n; i++ {
				s.DelHashed(key(i))
			}
		}},
		{"expiry sweep", func(s *Strings, k uint64) { s.SetEXHashed(k, val, 1) }, func(s *Strings, clk *testClock) {
			clk.advance(2 * nsPerSec)
			drain(s)
		}},
		{"eviction", func(s *Strings, k uint64) { s.SetHashed(k, val) }, func(s *Strings, _ *testClock) {
			s.budget = 1
			drain(s)
		}},
	} {
		t.Run(way.name, func(t *testing.T) {
			clk := newTestClock(1_000_000_000)
			s := newStrings(WithClock(clk.fn()), WithShardBuckets(1<<14),
				WithoutMaintenance(), WithByteBudget(1<<40))
			empty := heap()
			for i := uint64(1); i <= n; i++ {
				way.fill(s, key(i))
			}
			full := heap()
			way.remove(s, clk)
			if s.Len() != 0 || s.BytesUsed() != 0 {
				t.Fatalf("removal left Len %d, BytesUsed %d", s.Len(), s.BytesUsed())
			}
			s.Quiesce()
			floor := empty + n*indexFloor
			after := heap()
			t.Logf("heap: empty %.1f MB, full %.1f MB, after %.1f MB (floor %.1f MB)",
				float64(empty)/1e6, float64(full)/1e6, float64(after)/1e6, float64(floor)/1e6)
			if after > floor+floor/10 {
				t.Fatalf("heap %.1f MB after removing every value, want at most %.1f MB: %.0f values' worth still held",
					float64(after)/1e6, float64(floor+floor/10)/1e6, float64(after-floor)/size)
			}
			runtime.KeepAlive(s)
		})
	}
}
