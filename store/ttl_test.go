package store

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

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
// keys land across the range partition like any other uint64s).
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
			s := newStrings(WithClock(clk.fn()), WithShards(4), WithShardBuckets(16), WithoutMaintenance())
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
	s := newStrings(WithClock(clk.fn()), WithShards(1), WithoutMaintenance())

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
	s := newStrings(WithClock(clk.fn()), WithShards(2), WithoutMaintenance())
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
	s := newStrings(WithClock(clk.fn()), WithShards(1), WithoutMaintenance())
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

// TestByteBudgetEviction pins the budget enforcement: exceed the budget,
// run the governance pass, land at or under it — and prefer evicting
// cold entries over recently touched ones.
func TestByteBudgetEviction(t *testing.T) { eachStrings(t, testByteBudgetEviction) }

func testByteBudgetEviction(t *testing.T, newStrings func(...Option) *Strings) {
	clk := newTestClock(1_000_000_000)
	const (
		valLen = 100
		perKey = valLen + pairOverhead
		hot    = 50
		cold   = 40
		fill   = 60
		budget = int64(perKey * 100) // room for 100 of the 150 keys
	)
	s := newStrings(WithClock(clk.fn()), WithShards(2), WithoutMaintenance(), WithByteBudget(budget))
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
	// Phase 2: fresh filler pushes the store past budget; the governance
	// pass must land at or under it, shedding the aged cold set first.
	for i := 0; i < fill; i++ {
		s.Set(fmt.Sprintf("fill%03d", i), string(val))
	}
	if got := s.BytesUsed(); got <= budget {
		t.Fatalf("setup: BytesUsed = %d, want > budget %d", got, budget)
	}
	s.Quiesce()
	if got := s.BytesUsed(); got > budget {
		t.Fatalf("post-Quiesce BytesUsed = %d, want <= budget %d", got, budget)
	}
	_, _, evicted := s.TTLStats()
	if evicted == 0 {
		t.Fatal("nothing evicted")
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
	hotRate := float64(hotLive) / float64(hot)
	coldRate := float64(coldLive) / float64(cold)
	if hotRate < coldRate+0.2 {
		t.Fatalf("approx-LRU not preferring cold: hot survival %.2f, cold survival %.2f", hotRate, coldRate)
	}
}

// TestEvictionScanResistance pins what the frequency half of the stamp buys:
// a hot set read in several epochs survives a one-pass insert of five times
// the budget in never-read keys. Under a recency-only order the scan is
// always the freshest thing in the store and the hot set goes first — every
// hot key is gone by the end. The hash store keeps 99 % of the hot set: a
// round whose best-of-K holds only hot keys widens its sample until it
// meets a scan key, where a fixed best-of-K lost 21 of 500. The sorted
// store's probes report one successor each, so its floor stays at 90 %.
func TestEvictionScanResistance(t *testing.T) { eachStrings(t, testEvictionScanResistance) }

func testEvictionScanResistance(t *testing.T, newStrings func(...Option) *Strings) {
	clk := newTestClock(1_000_000_000)
	const (
		valLen = 100
		hot    = 500
		scan   = 5000
		budget = int64((valLen + pairOverhead) * 1000)
	)
	s := newStrings(WithClock(clk.fn()), WithShards(2), WithoutMaintenance(), WithByteBudget(budget))
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
	floor := hot * 99 / 100
	if _, sorted := s.index.shards[0].(*orderedShard[*pair]); sorted {
		floor = hot * 9 / 10
	}
	if live < floor {
		t.Fatalf("%d/%d hot keys survived the scan, want at least %d", live, hot, floor)
	}
}

// evictMix is a budgeted store without maintenance, filled behind the
// string layer's back with entries whose stamps are set outright: warm
// ones read in eight epochs, cold ones as an insert leaves them. put
// charges and maps a fresh random key of the given temperature.
type evictMix struct {
	s    *Strings
	keys *rng.Xorshift
	val  string
}

func newEvictMix(newStrings func(...Option) *Strings, shards int) *evictMix {
	s := newStrings(WithShards(shards), WithoutMaintenance(), WithClock(func() int64 { return 1 }),
		WithByteBudget(1))
	return &evictMix{s: s, keys: rng.NewXorshift(3), val: strings.Repeat("v", 16)}
}

func (m *evictMix) put(cold bool) uint64 {
	k := m.keys.Intn(1<<62) + 1
	stamp := m.s.epoch.Load()<<stampCountBits | 8
	if cold {
		stamp = stampNew(m.s.epoch.Load())
	}
	p := newPair(m.val, 0, stamp)
	m.s.charge(k, p.size())
	m.s.index.Set(k, p)
	return k
}

// TestEvictionWidensToACold pins the widening on warm residents with a
// cold tenth: every round whose widened sample — the probes a round reads
// to gather evictWidenMax entries, replayed from the round's rng — holds a
// cold entry evicts a cold one, on both stores, and a round whose sample
// holds none evicts a warm one and counts it on EvictedWarm. A fixed
// best-of-K evicts a warm entry whenever the cold ones lie past its first
// K, so the test also requires rounds of that kind.
func TestEvictionWidensToACold(t *testing.T) {
	const residents, rounds = 4000, 400
	eachStrings(t, func(t *testing.T, newStrings func(...Option) *Strings) {
		m := newEvictMix(newStrings, 2)
		s := m.s
		defer s.Close()
		cold := map[uint64]bool{}
		put := func(c bool) {
			if k := m.put(c); c {
				cold[k] = true
			}
		}
		for i := 0; i < residents; i++ {
			put(i%10 == 0)
		}
		epoch := s.epoch.Load()
		rnd := uint64(0x9E3779B97F4A7C15)
		pastK, warm := 0, uint64(0)
		for r := 0; r < rounds; r++ {
			var sampled []uint64
			coldAt := -1
			replay := rnd
			for i, live := 0, 0; i < evictProbeMax && live < evictWidenMax; i++ {
				replay ^= replay << 13
				replay ^= replay >> 7
				replay ^= replay << 17
				keys, _, n := s.index.sample(replay)
				for _, k := range keys[:n] {
					if cold[k] && coldAt < 0 {
						coldAt = live
					}
					sampled = append(sampled, k)
					live++
				}
			}
			if got := s.evictSample(&rnd, 1, epoch, false); got != 1 {
				t.Fatalf("round %d evicted %d entries, want 1", r, got)
			}
			victim, found := uint64(0), 0
			for _, k := range sampled {
				if _, ok := s.index.Get(k); !ok && victim != k {
					victim, found = k, found+1
				}
			}
			if found != 1 {
				t.Fatalf("round %d: %d sampled keys gone, want the one victim", r, found)
			}
			switch {
			case coldAt >= 0 && !cold[victim]:
				t.Fatalf("round %d evicted a warm entry though entry %d of its widened sample was cold", r, coldAt)
			case coldAt < 0:
				warm++
			case coldAt >= evictSampleK:
				pastK++
			}
			if got := s.EvictedWarm(); got != warm {
				t.Fatalf("round %d: EvictedWarm = %d, want %d", r, got, warm)
			}
			delete(cold, victim)
			put(coldAt >= 0)
		}
		t.Logf("%d of %d rounds found their cold victim past the first %d entries; %d had none to find",
			pastK, rounds, evictSampleK, warm)
		if pastK < rounds/10 {
			t.Fatalf("only %d of %d rounds had their nearest cold entry past the first %d; the test does not exercise the widening",
				pastK, rounds, evictSampleK)
		}
	})
}

// BenchmarkEvictRound times one aggressive eviction round — the write
// path's hand — on hash and sorted stores of 2^17 residents, cold-rich (a
// half cold) and all warm. After each round, outside the timer, the store
// gets back as many warm and cold entries as the round evicted of each,
// so the mix holds steady. entries/round is the entries a round evicts:
// the cold ones its sample turns up, or its one fallback victim. All warm
// is the widening's worst case: every round reads evictWidenMax entries
// and evicts one.
func BenchmarkEvictRound(b *testing.B) {
	for _, c := range stringsCtors {
		for _, mix := range []struct {
			name string
			cold int // per 10 residents
		}{{"cold-rich", 5}, {"all-warm", 0}} {
			b.Run(c.name+"/"+mix.name, func(b *testing.B) {
				m := newEvictMix(c.new, 1)
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
					n := s.evictSample(&rnd, 1, epoch, true)
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

// TestStampDecay pins the stamp arithmetic: one count per epoch however many
// reads, halving exactly at generation boundaries, saturation, the one
// generation of future a reader allows for, and the 24-bit epoch's horizon:
// a stamp reads its true age until 2^24 - 2^10 epochs (≈ 4.6 h of ~1 ms
// epochs), fresher than it is around the wrap, never older, never panicking.
func TestStampDecay(t *testing.T) {
	const gen = 1 << stampGenBits
	stamp := func(epoch, count uint32) uint32 { return epoch<<stampCountBits | count }
	for _, c := range []struct {
		name      string
		stamp     uint32
		epoch     uint32
		freq, age uint32
	}{
		{"fresh insert", stampNew(7), 7, 1, 0},
		{"same generation", stamp(gen+1, 8), 2*gen - 1, 8, gen - 2},
		{"one boundary", stamp(gen+1, 8), 2 * gen, 4, gen - 1},
		{"boundary one epoch on", stamp(2*gen-1, 8), 2 * gen, 4, 1},
		{"still one boundary", stamp(gen+1, 8), 3*gen - 1, 4, 2*gen - 2},
		{"two boundaries", stamp(gen+1, 8), 3 * gen, 2, 2*gen - 1},
		{"written on a boundary", stamp(gen, 8), 2*gen - 1, 8, gen - 1},
		{"odd counts round down", stamp(gen, 5), 2 * gen, 2, gen},
		{"decays to nothing", stamp(gen, 255), 9 * gen, 0, 8 * gen},
		{"the oldest readable stamp", stamp(0, 255), 1<<23 - 1, 0, 1<<23 - 1},
		{"from the future", stamp(10, 3), 7, 3, 0},
		{"a generation ahead is still the future", stamp(7+gen, 3), 7, 3, 0},
		{"further ahead is a wrapped stamp: oldest and coldest", stamp(8+gen, 3), 7, 0, 1<<24 - gen - 1},
		{"half the epoch field old", stamp(0, 9), 1 << 23, 0, 1 << 23},
		{"the horizon: a generation short of a wrap reads as the future", stamp(0, 9), 1<<24 - gen, 9, 0},
		{"a full wrap reads fresh", stamp(5, 9), 1<<24 + 5, 9, 0},
		{"and decays again from there", stamp(5, 9), 1<<24 + 5 + 4*gen, 0, 4 * gen},
		{"epoch past 24 bits", stamp(1<<24-2, 8), 1<<24 + 1, 4, 3},
		{"epoch at 32 bits", stamp(1<<24-1, 8), 1<<32 - 1, 8, 0},
	} {
		freq, age := stampRead(c.stamp, c.epoch)
		if freq != c.freq || age != c.age {
			t.Errorf("%s: stampRead(%#x, %d) = freq %d age %d, want freq %d age %d",
				c.name, c.stamp, c.epoch, freq, age, c.freq, c.age)
		}
		// The second touch of an epoch never moves the stamp, and touch stores
		// only a stamp that moved: at most one store per entry per epoch.
		once := stampTouch(c.stamp, c.epoch)
		if twice := stampTouch(once, c.epoch); twice != once {
			t.Errorf("%s: second touch in epoch %d moved the stamp %#x → %#x", c.name, c.epoch, once, twice)
		}
		if _, a := stampRead(once, c.epoch); a != 0 {
			t.Errorf("%s: a stamp just touched reads age %d", c.name, a)
		}
	}

	// Through a pair: many reads in an epoch count once, each new epoch counts
	// once more, the count holds at the cap, and a reader that snapshotted an
	// older epoch does not take the stamp backwards.
	p := newPair("v", 0, stampNew(4*gen))
	for epoch := uint32(4 * gen); epoch < 4*gen+300; epoch++ {
		for read := 0; read < 3; read++ {
			p.touch(epoch)
		}
		want := min(epoch-4*gen+1, stampCountMax)
		if freq, age := stampRead(p.touched.Load(), epoch); freq != want || age != 0 {
			t.Fatalf("epoch %d: freq %d age %d after three reads, want freq %d age 0", epoch, freq, age, want)
		}
	}
	before := p.touched.Load()
	if p.touch(4 * gen); p.touched.Load() != before {
		t.Fatalf("a stale reader moved the stamp %#x → %#x", before, p.touched.Load())
	}
}

// TestOverwriteInheritsFrequency pins that a key's count survives its pairs:
// every write over a live key hands the displaced pair's stamp on (as one
// more touch when the epoch moved), Expire and Persist pass it through
// untouched, a fresh key starts at one — and without a budget none of it
// happens, because nothing would ever read the result.
func TestOverwriteInheritsFrequency(t *testing.T) { eachStrings(t, testOverwriteInheritsFrequency) }

func testOverwriteInheritsFrequency(t *testing.T, newStrings func(...Option) *Strings) {
	clk := newTestClock(1_000_000_000)
	k := HashKey("k")
	freq := func(s *Strings) uint32 {
		p := s.lookup(k)
		f, _ := stampRead(p.touched.Load(), s.epoch.Load())
		return f
	}
	s := newStrings(WithClock(clk.fn()), WithShards(2), WithoutMaintenance(), WithByteBudget(1<<20))
	s.Set("k", "v0")
	if got := freq(s); got != 1 {
		t.Fatalf("fresh key: freq %d, want 1", got)
	}
	for epoch := 0; epoch < 5; epoch++ {
		s.epoch.Add(1)
		s.Get("k")
	}
	want := uint32(6)
	for _, w := range []struct {
		name  string
		do    func()
		touch uint32
	}{
		{"Set, same epoch", func() { s.Set("k", "v1") }, 0},
		{"Set", func() { s.epoch.Add(1); s.Set("k", "v2") }, 1},
		{"SetEX", func() { s.epoch.Add(1); s.SetEX("k", "v3", 100) }, 1},
		{"MSetHashed", func() {
			s.epoch.Add(1)
			s.MSetHashed([]uint64{HashKey("other"), k}, []string{"o", "v4"}, make([]bool, 2))
		}, 1},
		{"Expire", func() { s.epoch.Add(1); s.Expire("k", 100) }, 0},
		{"Persist", func() { s.epoch.Add(1); s.Persist("k") }, 0},
	} {
		w.do()
		if want += w.touch; freq(s) != want {
			t.Fatalf("%s over a hot key: freq %d, want %d", w.name, freq(s), want)
		}
	}
	if p := s.lookup(HashKey("other")); p.touched.Load()&stampCountMax != 1 {
		t.Fatalf("fresh key in a batch: stamp %#x, want a count of 1", p.touched.Load())
	}

	// No budget: the stamp is never read, so the write path neither loads the
	// displaced pair's nor stores one — the successor keeps its birth stamp.
	u := newStrings(WithClock(clk.fn()), WithShards(2), WithoutMaintenance())
	u.Set("k", "v0")
	p := u.lookup(k)
	p.touched.Store(stampNew(0) + 40)
	u.epoch.Add(1)
	u.Set("k", "v1")
	u.MSetHashed([]uint64{k}, []string{"v2"}, make([]bool, 1))
	if p := u.lookup(k); p.touched.Load() != stampNew(u.epoch.Load()) {
		t.Fatalf("no budget: overwrite left stamp %#x, want the birth stamp %#x", p.touched.Load(), stampNew(u.epoch.Load()))
	}
}

// TestTTLDefaultClock exercises the uninjected path (cached coarse clock)
// without depending on real time passing: a fresh store's TTL ops work
// and a TTL far in the future stays live.
func TestTTLDefaultClock(t *testing.T) {
	s := NewStrings(WithShards(1), WithoutMaintenance())
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
// hash shards are provisioned so the table never resizes: a delete must
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
			s := newStrings(WithClock(clk.fn()), WithShards(2), WithShardBuckets(1<<14),
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
