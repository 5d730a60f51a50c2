package store

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/internal/core"
)

// TestStringsBasic pins the scalar surface: set/get/del, replace
// semantics, and the byte counter following the live entries.
func TestStringsBasic(t *testing.T) {
	s := NewStrings(WithShardBuckets(64), WithoutMaintenance())
	defer s.Close()

	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get on empty store hit")
	}
	if replaced := s.Set("a", "1"); replaced {
		t.Fatal("fresh Set reported replace")
	}
	if replaced := s.Set("a", "2"); !replaced {
		t.Fatal("second Set did not report replace")
	}
	if v, ok := s.Get("a"); !ok || v != "2" {
		t.Fatalf("Get(a) = %q, %v; want 2, true", v, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if !s.Del("a") {
		t.Fatal("Del(a) missed")
	}
	if s.Del("a") {
		t.Fatal("second Del(a) hit")
	}
	// The replace and the delete each credited the pair they unmapped.
	if got := s.BytesUsed(); got != 0 {
		t.Fatalf("BytesUsed = %d with no entry left, want 0", got)
	}
	s.Set("b", "3")
	s.Set("c", "45")
	if got, want := s.BytesUsed(), int64(3+2*PairOverhead); got != want {
		t.Fatalf("BytesUsed = %d, want %d", got, want)
	}
}

// TestStringsMGet pins the batched read path.
func TestStringsMGet(t *testing.T) {
	s := NewStrings(WithShardBuckets(64), WithoutMaintenance())
	defer s.Close()
	for i := 0; i < 100; i++ {
		s.Set(fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d", i))
	}
	keys := []string{"k00", "nope", "k51", "k99", "also-nope"}
	vals := make([]string, len(keys))
	found := make([]bool, len(keys))
	s.MGet(keys, vals, found)
	wantVals := []string{"v00", "", "v51", "v99", ""}
	wantFound := []bool{true, false, true, true, false}
	for i := range keys {
		if vals[i] != wantVals[i] || found[i] != wantFound[i] {
			t.Fatalf("MGet[%d] = %q, %v; want %q, %v", i, vals[i], found[i], wantVals[i], wantFound[i])
		}
	}
}

// TestStringsConcurrentRecycle hammers one hot key set with readers and
// writers that delete and re-store it: a reader must only ever observe a
// value that was written for the key it asked about.
func TestStringsConcurrentRecycle(t *testing.T) {
	s := NewStrings(WithShardBuckets(64), WithoutMaintenance())
	defer s.Close()

	// The interleaving the governance splice must survive, staged once by
	// hand: a pair of key 10 sampled before the key was deleted and stored
	// again. The successor is a new pair, so the conditional delete —
	// exact on identity — must refuse it, and the stale pair still reads
	// the value it held.
	s.SetHashed(10, "ten")
	p0, _ := s.index.Get(10)
	s.DelHashed(10)
	s.SetHashed(10, "ten again")
	if s.retire(10, p0, &s.evicted) {
		t.Fatal("a stale pair retired its key's successor")
	}
	if v, ok := s.GetHashed(10); !ok || v != "ten again" {
		t.Fatalf("Get(10) = %q, %v after the refused retirement", v, ok)
	}
	if p0.val() != "ten" {
		t.Fatalf("the stale pair reads %q, want its own value", p0.val())
	}
	s.DelHashed(10)

	const keys = 8
	key := func(i int) string { return fmt.Sprintf("hot%d", i) }
	val := func(i int) string { return fmt.Sprintf("val-for-%d", i) }
	for i := 0; i < keys; i++ {
		s.Set(key(i), val(i))
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := seed; !stop.Load(); i++ {
				k := i % keys
				s.Del(key(k))
				s.Set(key(k), val(k))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := seed; !stop.Load(); i++ {
				k := i % keys
				if v, ok := s.Get(key(k)); ok && v != val(k) {
					t.Errorf("Get(%s) = %q, want %q", key(k), v, val(k))
					return
				}
			}
		}(r)
	}
	for i := 0; i < 200000 && !t.Failed(); i++ {
		k := i % keys
		if v, ok := s.Get(key(k)); ok && v != val(k) {
			t.Errorf("Get(%s) = %q, want %q", key(k), v, val(k))
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestHashKeyBytesMatches pins the zero-alloc byte hasher to the string
// one, sentinel clamping included.
func TestHashKeyBytesMatches(t *testing.T) {
	for _, k := range []string{"", "a", "user:0042", "\x00\xff", "the quick brown fox"} {
		if HashKey(k) != HashKeyBytes([]byte(k)) {
			t.Fatalf("HashKey(%q) = %d != HashKeyBytes = %d", k, HashKey(k), HashKeyBytes([]byte(k)))
		}
	}
	if HashKey("") == 0 {
		t.Fatal("sentinel clamp missing")
	}
}

// TestClampHashFoldsSentinels pins the hash server's key path clear of
// ds.CheckKey's panic: a wire key whose hash lands on either sentinel
// (0, 2^64-1) is folded to a legal key; every legal hash passes through.
func TestClampHashFoldsSentinels(t *testing.T) {
	for _, h := range []uint64{0, math.MaxUint64} {
		if k := clampHash(h); k < ds.MinKey || k > ds.MaxKey {
			t.Errorf("clampHash(%d) = %d, outside [%d, %d]", h, k, ds.MinKey, ds.MaxKey)
		}
	}
	for _, h := range []uint64{ds.MinKey, 42, ds.MaxKey} {
		if k := clampHash(h); k != h {
			t.Errorf("clampHash(%d) = %d, want the legal key unchanged", h, k)
		}
	}
}

// TestStringsHashedBatches drives the hash-level batch APIs end to end
// against the scalar surface: same outcomes, byte conservation (every
// replaced or deleted pair is credited back), and duplicate hashes
// applying in order.
func TestStringsHashedBatches(t *testing.T) {
	s := NewStrings(WithShardBuckets(64), WithoutMaintenance())
	defer s.Close()
	keys := []string{"a", "b", "a", "c"}
	hashes := make([]uint64, len(keys))
	for i, k := range keys {
		hashes[i] = HashKey(k)
	}
	vals := []string{"1", "2", "3", "4"}
	replaced := make([]bool, len(keys))
	if ins := s.MSetHashed(hashes, vals, replaced); ins != 3 {
		t.Fatalf("MSetHashed fresh = %d, want 3", ins)
	}
	if replaced[0] || replaced[1] || !replaced[2] || replaced[3] {
		t.Fatalf("MSetHashed replaced = %v", replaced)
	}
	// The duplicate's first pair must have been credited back.
	if got, want := s.BytesUsed(), int64(3*(1+PairOverhead)); got != want {
		t.Fatalf("BytesUsed = %d after duplicate overwrite, want %d", got, want)
	}
	if v, ok := s.Get("a"); !ok || v != "3" {
		t.Fatalf(`Get("a") = %q,%v; want "3" (last duplicate wins)`, v, ok)
	}
	outVals := make([]string, len(keys))
	found := make([]bool, len(keys))
	s.MGetHashed(hashes, outVals, found)
	want := []string{"3", "2", "3", "4"}
	for i := range keys {
		if !found[i] || outVals[i] != want[i] {
			t.Fatalf("MGetHashed[%d] = %q,%v; want %q", i, outVals[i], found[i], want[i])
		}
	}
	delHashes := []uint64{hashes[0], HashKey("missing"), hashes[0], hashes[3]}
	delFound := make([]bool, len(delHashes))
	if del := s.MDelHashed(delHashes, delFound); del != 2 {
		t.Fatalf("MDelHashed = %d, want 2", del)
	}
	if !delFound[0] || delFound[1] || delFound[2] || !delFound[3] {
		t.Fatalf("MDelHashed found = %v", delFound)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	// 4 puts, 3 pairs unmapped (1 dup overwrite + 2 deletes): one left.
	if got, want := s.BytesUsed(), int64(1+PairOverhead); got != want {
		t.Fatalf("BytesUsed = %d, want %d", got, want)
	}
}

// TestMSetHashedGrowsLikeSetHashed pins migration pacing on the path a
// pipelined bulk load takes (coalesced SETs and MSET drain through
// MSetHashed in 64-key batches): without Quiesce, it must leave the index
// exactly as large as the same keys set one SetHashed at a time. When
// batches paid migration help once per shard visit instead of per key,
// the batched store's root slabs trailed the scalar twin's by several
// doublings. No scheduler, so only the writes drive migration.
func TestMSetHashedGrowsLikeSetHashed(t *testing.T) {
	n := 500_000
	if testing.Short() {
		n = 100_000
	}
	const batch = 64
	batched := NewStrings(WithoutMaintenance())
	defer batched.Close()
	scalar := NewStrings(WithoutMaintenance())
	defer scalar.Close()
	hashes := make([]uint64, 0, batch)
	vals := make([]string, 0, batch)
	replaced := make([]bool, batch)
	for k := uint64(1); k <= uint64(n); k++ {
		scalar.SetHashed(k, "v")
		hashes, vals = append(hashes, k), append(vals, "v")
		if len(hashes) == batch || k == uint64(n) {
			batched.MSetHashed(hashes, vals, replaced)
			hashes, vals = hashes[:0], vals[:0]
		}
	}
	if batched.Len() != n || scalar.Len() != n {
		t.Fatalf("Len = %d batched, %d scalar; want %d", batched.Len(), scalar.Len(), n)
	}
	if got, want := batched.Index().Buckets(), scalar.Index().Buckets(); got != want {
		t.Fatalf("Buckets = %d after the MSetHashed load, %d after the SetHashed load", got, want)
	}
}

// TestBulkLoadHoldsBudget pins the eviction a budgeted bulk load lends:
// two goroutines MSET four budgets' worth of fresh keys in 64-key batches,
// as a preloading client does, with no scheduler, so only the batches'
// rounds evict. After every batch the store holds at most its budget plus
// a batch per loader in flight, and the hash table has grown no further
// than that many entries need.
// One hand per batch lets this load reach 2.1× the budget on the hash
// store, whose table then keeps a doubling more, and 2.5× on the sorted.
func TestBulkLoadHoldsBudget(t *testing.T) {
	const (
		valLen  = 128
		entry   = valLen + PairOverhead
		batch   = 64
		loaders = 2
	)
	budget := 20_000 * entry
	if testing.Short() {
		budget = 5_000 * entry
	}
	perLoad := 2 * budget / entry // 4× the budget over both loaders
	limit := int64(budget + loaders*batch*entry)
	val := strings.Repeat("v", valLen)
	for _, c := range stringsCtors {
		t.Run(c.name, func(t *testing.T) {
			s := c.new(WithByteBudget(int64(budget)), WithoutMaintenance())
			defer s.Close()
			var peaks [loaders]int64
			var wg sync.WaitGroup
			for l := range loaders {
				wg.Add(1)
				go func() {
					defer wg.Done()
					hashes, vals := make([]uint64, 0, batch), make([]string, 0, batch)
					replaced := make([]bool, batch)
					for i := range perLoad {
						hashes, vals = append(hashes, uint64(l*perLoad+i+1)), append(vals, val)
						if len(hashes) < batch && i < perLoad-1 {
							continue
						}
						if n := s.MSetHashed(hashes, vals, replaced); n != len(hashes) {
							t.Errorf("MSetHashed inserted %d of %d fresh keys", n, len(hashes))
						}
						hashes, vals = hashes[:0], vals[:0]
						peaks[l] = max(peaks[l], s.BytesUsed())
					}
				}()
			}
			wg.Wait()
			p := max(peaks[0], peaks[1])
			t.Logf("peak %.3f× the budget, %d buckets", float64(p)/float64(budget), s.Index().Buckets())
			if p > limit {
				t.Fatalf("bulk load peaked at %d bytes, %.2f× its budget; want at most %d", p, float64(p)/float64(budget), limit)
			}
			s.Index().Quiesce()
			need := tableFor(int(limit / entry))
			if b := s.Index().Buckets(); c.name == "hash" && b > need {
				t.Fatalf("the table grew to %d buckets; %d entries need %d", b, limit/entry, need)
			}
		})
	}
}

// tableFor is the bucket count a hash table holding n entries grows to:
// the least power of two holding n at two entries per bucket.
func tableFor(n int) int {
	b := 1
	for 2*b < n {
		b <<= 1
	}
	return b
}

// TestStringsHashedBatchConcurrent races hashed batch writers/deleters
// with scalar readers on an overlapping keyspace; under -race this is
// the data-race coverage for the batch paths, and the final Len must
// match the model of net inserts — and BytesUsed the live entries.
func TestStringsHashedBatchConcurrent(t *testing.T) {
	s := NewStrings(WithShardBuckets(64), WithoutMaintenance())
	defer s.Close()
	const workers, iters, span = 4, 300, 128
	var net int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rnd := seed
			next := func() uint64 { rnd ^= rnd << 13; rnd ^= rnd >> 7; rnd ^= rnd << 17; return rnd }
			hashes := make([]uint64, 8)
			vals := make([]string, 8)
			outV := make([]string, 8)
			flags := make([]bool, 8)
			local := int64(0)
			for i := 0; i < iters; i++ {
				for j := range hashes {
					hashes[j] = next()%span + 2 // clear of sentinel hashes
					vals[j] = "v"
				}
				switch i % 3 {
				case 0:
					local += int64(s.MSetHashed(hashes, vals, flags))
				case 1:
					local -= int64(s.MDelHashed(hashes, flags))
				default:
					s.MGetHashed(hashes, outV, flags)
				}
			}
			mu.Lock()
			net += local
			mu.Unlock()
		}(uint64(w + 1))
	}
	wg.Wait()
	s.Quiesce()
	if int64(s.Len()) != net {
		t.Fatalf("conservation: Len = %d, net = %d", s.Len(), net)
	}
	if got, want := s.BytesUsed(), net*(1+PairOverhead); got != want {
		t.Fatalf("conservation: BytesUsed = %d, want %d for %d one-byte values", got, want, net)
	}
}

// allocsPerRun is testing.AllocsPerRun with the bytes as well: prep runs
// unmeasured before each measured f, the object count is the integer mean
// over the runs, and the byte count is the smallest any run saw (noise —
// a table slab, a background allocation — only ever adds).
func allocsPerRun(runs int, prep, f func()) (objects, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	bytes = math.MaxUint64
	for i := 0; i <= runs; i++ {
		prep()
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		if i == 0 {
			continue // warm-up
		}
		objects += m1.Mallocs - m0.Mallocs
		bytes = min(bytes, m1.TotalAlloc-m0.TotalAlloc)
	}
	return objects / uint64(runs), bytes
}

var allocSink []byte

// TestPairOneAllocation pins the layout: a stored value is ONE pointer-free
// object — the 8-byte header, the deadline word if the entry has a TTL, and
// the bytes — so writing a value into a warm store (an index slot, or a
// pooled index node) allocates exactly once, and what it allocates is no
// larger than an 8+len byte slice's size class, 16+len with a deadline.
// Re-arming a deadline builds the same single object. Dropping the key
// hash took 8 bytes off every pair, and no common value size — 32, 64 or
// 128 bytes — lands in a larger size class than it had with it (a TTL'd
// one now lands a class lower).
func TestPairOneAllocation(t *testing.T) {
	if got := unsafe.Sizeof(pair{}); got != 8 {
		t.Fatalf("pair header is %d bytes, want 8", got)
	}
	pt := reflect.TypeOf(pair{})
	for i := 0; i < pt.NumField(); i++ {
		switch k := pt.Field(i).Type.Kind(); k {
		case reflect.Pointer, reflect.String, reflect.Slice, reflect.Map, reflect.Interface,
			reflect.Chan, reflect.Func, reflect.UnsafePointer:
			t.Fatalf("pair.%s is a %v: the object must hold no pointer", pt.Field(i).Name, k)
		}
	}
	s := NewStrings(WithShardBuckets(64), WithoutMaintenance(),
		WithClock(func() int64 { return 1 }))
	defer s.Close()
	const k, runs = 7, 20
	for _, n := range []int{0, 1, 32, 64, 128, 1000, 70_000} {
		val := strings.Repeat("v", n)
		absent := func() { s.DelHashed(k) }
		live := func() { s.SetHashed(k, val) }
		for _, op := range []struct {
			name    string
			header  int
			prep, f func()
		}{
			{"SetHashed", pairHeader, absent, func() { s.SetHashed(k, val) }},
			{"SetEXHashed", pairHeader + 8, absent, func() { s.SetEXHashed(k, val, 100) }},
			{"ExpireAt", pairHeader + 8, live, func() { s.ExpireAtHashed(k, 1<<40) }},
		} {
			_, class := allocsPerRun(runs, func() {}, func() { allocSink = make([]byte, op.header+n) })
			if n == 32 || n == 64 || n == 128 {
				if _, was := allocsPerRun(runs, func() {}, func() { allocSink = make([]byte, op.header+8+n) }); class > was {
					t.Errorf("%s len=%d: the pair's size class moved up, %d → %d", op.name, n, was, class)
				}
			}
			objects, bytes := allocsPerRun(runs, op.prep, op.f)
			if v, ok := s.GetHashed(k); !ok || v != val {
				t.Fatalf("%s len=%d: value did not survive (ok=%v, %d bytes back)", op.name, n, ok, len(v))
			}
			if objects != 1 || bytes > class {
				t.Errorf("%s len=%d: %d allocations, %d bytes; want 1 allocation of at most %d bytes",
					op.name, n, objects, bytes, class)
			}
		}
	}
}

// TestPairDeadlineRoundTrip pins the two shapes of the object: the deadline
// word exists only behind the flag bit, the value bytes start after whichever
// of header and deadline comes last, and Expire/Persist move an entry from
// one shape to the other without touching its bytes or its accounting. Under
// -race, checkptr polices every cast the accessors make.
func TestPairDeadlineRoundTrip(t *testing.T) {
	const now = int64(1) << 40
	for _, val := range []string{"", "v", "exactly8", strings.Repeat("0123456789", 7), strings.Repeat("x", 1000)} {
		for _, d := range []int64{0, 1, now - 1, now, now + 1, math.MaxInt64} {
			p := newPair(val, d, 9)
			if got := p.val(); got != val {
				t.Fatalf("deadline %d: val() = %q, want %q", d, got, val)
			}
			if p.deadline() != d || p.size() != len(val) || p.touched.Load() != 9 {
				t.Fatalf("len %d deadline %d: read back deadline=%d size=%d touched=%d",
					len(val), d, p.deadline(), p.size(), p.touched.Load())
			}
			if p.expiredAt(now) != (d != 0 && d <= now) {
				t.Fatalf("deadline %d: expiredAt(%d) = %v", d, now, p.expiredAt(now))
			}
		}
	}
	// The empty value with a TTL is header + deadline and nothing else: a
	// 16-byte object, with no pointer formed past its end.
	_, class := allocsPerRun(20, func() {}, func() { allocSink = make([]byte, 16) })
	objects, bytes := allocsPerRun(20, func() {}, func() { pairSink = newPair("", now, 0) })
	if objects != 1 || bytes > class {
		t.Fatalf("empty value with a TTL: %d allocations, %d bytes; want 1 of at most %d", objects, bytes, class)
	}
	if v := pairSink.val(); v != "" || unsafe.StringData(v) != nil {
		t.Fatalf("empty value with a TTL: val() = %q over %p, want no pointer at all", v, unsafe.StringData(v))
	}

	clock := now
	s := NewStrings(WithShardBuckets(64), WithoutMaintenance(),
		WithClock(func() int64 { return clock }))
	defer s.Close()
	want := strings.Repeat("payload-", 9)
	s.Set("k", want)
	used := s.BytesUsed()
	flagged := func() bool {
		return s.lookup(HashKey("k")).n&pairTTL != 0
	}
	for i, step := range []struct {
		name    string
		do      func() bool
		changed bool
		flag    bool
		ttl     int64
	}{
		{"Set", func() bool { return true }, true, false, -1},
		{"Persist without a TTL", func() bool { return s.Persist("k") }, false, false, -1},
		{"Expire", func() bool { return s.Expire("k", 10) }, true, true, 10},
		{"Expire again", func() bool { return s.Expire("k", 20) }, true, true, 20},
		{"Persist", func() bool { return s.Persist("k") }, true, false, -1},
		{"Expire after Persist", func() bool { return s.ExpireAt("k", math.MaxInt64) }, true, true,
			(math.MaxInt64 - now + nsPerSec - 1) / nsPerSec},
	} {
		if got := step.do(); got != step.changed {
			t.Fatalf("step %d, %s: reported %v, want %v", i, step.name, got, step.changed)
		}
		if v, ok := s.Get("k"); !ok || v != want {
			t.Fatalf("step %d, %s: Get = %q, %v; the bytes must survive", i, step.name, v, ok)
		}
		if flagged() != step.flag {
			t.Fatalf("step %d, %s: deadline flag = %v, want %v", i, step.name, !step.flag, step.flag)
		}
		if got := s.TTL("k"); got != step.ttl {
			t.Fatalf("step %d, %s: TTL = %d, want %d", i, step.name, got, step.ttl)
		}
		if got := s.BytesUsed(); got != used {
			t.Fatalf("step %d, %s: BytesUsed %d → %d; both shapes are charged alike", i, step.name, used, got)
		}
	}
	clock = math.MaxInt64
	if _, ok := s.Get("k"); ok || s.TTL("k") != -2 || s.BytesUsed() != 0 {
		t.Fatalf("at the deadline: Get hit=%v TTL=%d BytesUsed=%d, want a retired entry", ok, s.TTL("k"), s.BytesUsed())
	}
}

var pairSink *pair

// TestStringsHotFieldsOwnTheirLine pins the field grouping of Strings: the
// fields every GET reads and nothing writes after init sit at least a cache
// line away from every word an operation stores to, and those in turn from
// the sweeper's maintMu-guarded state — whatever the allocation's alignment.
func TestStringsHotFieldsOwnTheirLine(t *testing.T) {
	type span struct {
		name     string
		off, len uintptr
	}
	var s Strings
	readMostly := []span{
		{"index", unsafe.Offsetof(s.index), unsafe.Sizeof(s.index)},
		{"bytes", unsafe.Offsetof(s.bytes), unsafe.Sizeof(s.bytes)},
		{"elided", unsafe.Offsetof(s.elided), unsafe.Sizeof(s.elided)},
		{"warm", unsafe.Offsetof(s.warm), unsafe.Sizeof(s.warm)},
		{"sketch", unsafe.Offsetof(s.sketch), unsafe.Sizeof(s.sketch)},
		{"clock", unsafe.Offsetof(s.clock), unsafe.Sizeof(s.clock)},
		{"budget", unsafe.Offsetof(s.budget), unsafe.Sizeof(s.budget)},
	}
	written := []span{
		{"epoch", unsafe.Offsetof(s.epoch), unsafe.Sizeof(s.epoch)},
		{"expiredLazy", unsafe.Offsetof(s.expiredLazy), unsafe.Sizeof(s.expiredLazy)},
		{"expiredSwept", unsafe.Offsetof(s.expiredSwept), unsafe.Sizeof(s.expiredSwept)},
		{"evicted", unsafe.Offsetof(s.evicted), unsafe.Sizeof(s.evicted)},
		{"evictedNew", unsafe.Offsetof(s.evictedNew), unsafe.Sizeof(s.evictedNew)},
		{"handRng", unsafe.Offsetof(s.handRng), unsafe.Sizeof(s.handRng)},
		{"epochTick", unsafe.Offsetof(s.epochTick), unsafe.Sizeof(s.epochTick)},
		{"deadlines", unsafe.Offsetof(s.deadlines), unsafe.Sizeof(s.deadlines)},
	}
	sweeper := []span{
		{"maintMu", unsafe.Offsetof(s.maintMu), unsafe.Sizeof(s.maintMu)},
		{"sweepCursor", unsafe.Offsetof(s.sweepCursor), unsafe.Sizeof(s.sweepCursor)},
		{"sweepRng", unsafe.Offsetof(s.sweepRng), unsafe.Sizeof(s.sweepRng)},
		{"sweepKeys", unsafe.Offsetof(s.sweepKeys), unsafe.Sizeof(s.sweepKeys)},
		{"sweepPairs", unsafe.Offsetof(s.sweepPairs), unsafe.Sizeof(s.sweepPairs)},
	}
	apart := func(as, bs []span) {
		for _, a := range as {
			for _, b := range bs {
				lo, hi := a, b
				if b.off < a.off {
					lo, hi = b, a
				}
				if hi.off < lo.off+lo.len+core.CacheLineSize {
					t.Errorf("%s [%d,%d) and %s [%d,%d) can share a %d-byte line",
						lo.name, lo.off, lo.off+lo.len, hi.name, hi.off, hi.off+hi.len, core.CacheLineSize)
				}
			}
		}
	}
	apart(readMostly, written)
	apart(readMostly, sweeper)
	apart(written, sweeper)
	// Two pads and the embedded struct itself are the three unplaced fields.
	if n := reflect.TypeOf(&s).Elem().NumField() + reflect.TypeOf(&s.governed).Elem().NumField(); n != len(readMostly)+len(written)+len(sweeper)+3 {
		t.Errorf("Strings has a field this test does not place (%d counted): add it to a group", n)
	}
}

// TestSetCopiesValue pins the write half of the ownership contract: Set
// keeps nothing of its argument. The server stages SET values as views
// over its read buffer, so a store that aliased the argument would serve
// whatever the connection received next.
func TestSetCopiesValue(t *testing.T) {
	s := NewStrings(WithShardBuckets(64), WithoutMaintenance(),
		WithClock(func() int64 { return 1 }))
	defer s.Close()
	buf := []byte("first-value")
	view := unsafe.String(&buf[0], len(buf))
	s.Set("set", view)
	s.SetEX("setex", view, 100)
	s.MSetHashed([]uint64{HashKey("mset")}, []string{view}, make([]bool, 1))
	s.Set("expire", view)
	s.Expire("expire", 100)
	copy(buf, "XXXXXXXXXXX")
	for _, key := range []string{"set", "setex", "mset", "expire"} {
		if v, ok := s.Get(key); !ok || v != "first-value" {
			t.Errorf("Get(%s) = %q, %v after the caller's buffer was overwritten; want first-value", key, v, ok)
		}
	}
}

// TestGetStringOutlivesEntry pins the read half: a string Get returned
// aliases an immutable, GC-owned object, so it stays valid and unchanged
// after its key is deleted, its index slot rewritten a hundred thousand
// times and the collector run — pairs are never reused in place.
func TestGetStringOutlivesEntry(t *testing.T) {
	s := NewStrings(WithShardBuckets(64), WithoutMaintenance())
	defer s.Close()
	want := strings.Repeat("held", 16)
	s.Set("held", want)
	s.Set("empty", "")
	held, _ := s.Get("held")
	empty, ok := s.Get("empty")
	if !ok || empty != "" {
		t.Fatalf("Get(empty) = %q, %v", empty, ok)
	}
	s.Del("held")
	s.Del("empty")
	junk := strings.Repeat("#", len(want))
	for i := 0; i < 100_000; i++ {
		s.Set("churn", junk)
	}
	runtime.GC()
	runtime.GC()
	if held != want {
		t.Fatalf("a held Get result changed after its entry was deleted: %q", held)
	}
}

// TestValueTooLarge pins the length field's guard — 31 bits, the top one
// being the deadline flag: a value the header cannot describe is refused
// with an invariant panic, never stored truncated or mistaken for a TTL'd
// one. The length is faked in the string header — newPair must refuse on the
// length alone, before it touches a byte.
func TestValueTooLarge(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("no string can be this long on a 32-bit platform")
	}
	var huge string
	tooLong := uint64(math.MaxInt32) + 1
	(*struct {
		data unsafe.Pointer
		n    int
	})(unsafe.Pointer(&huge)).n = int(tooLong)
	s := NewStrings(WithShardBuckets(64), WithoutMaintenance())
	defer s.Close()
	defer func() {
		if r := recover(); r != "store: value too large" {
			t.Fatalf("Set of a 2 GiB value: recovered %v, want the invariant panic", r)
		}
		if s.Len() != 0 || s.BytesUsed() != 0 {
			t.Fatalf("the refused value left Len=%d BytesUsed=%d behind", s.Len(), s.BytesUsed())
		}
	}()
	s.Set("huge", huge)
	t.Fatal("Set of a 2 GiB value returned")
}

// TestBytesUsedFormula pins the accounting the byte budget and the
// cache_churn workload's sizing are built on: every live entry is charged
// its value bytes plus PairOverhead, whatever the object layout costs the
// allocator, and every way out of the store credits exactly that back.
func TestBytesUsedFormula(t *testing.T) {
	if PairOverhead != 56 {
		t.Fatalf("PairOverhead = %d, want 56 (bench workloads size budgets from it)", PairOverhead)
	}
	s := NewStrings(WithShardBuckets(64), WithoutMaintenance(),
		WithClock(func() int64 { return 1 }))
	defer s.Close()
	const n = 1000
	for _, vlen := range []int{0, 32, 64, 100} {
		val := strings.Repeat("v", vlen)
		for i := 0; i < n; i++ {
			s.Set(fmt.Sprintf("k%d", i), val) // from the second length on, an overwrite
		}
		if got, want := s.BytesUsed(), int64(n*(vlen+PairOverhead)); got != want {
			t.Fatalf("BytesUsed after %d × %d-byte values = %d, want n × (len + 56) = %d", n, vlen, got, want)
		}
	}
	for i := 0; i < n; i += 2 {
		s.Expire(fmt.Sprintf("k%d", i), 100) // replaces the pair: same charge
	}
	if got, want := s.BytesUsed(), int64(n*(100+PairOverhead)); got != want {
		t.Fatalf("BytesUsed after Expire = %d, want %d", got, want)
	}
	for i := 0; i < n; i++ {
		s.Del(fmt.Sprintf("k%d", i))
	}
	if got := s.BytesUsed(); got != 0 {
		t.Fatalf("BytesUsed after deleting everything = %d, want 0", got)
	}
}

// TestEvictingSetIsOneAllocation pins the write path's allocation contract
// under a full byte budget: a SetHashed whose eviction hand retires
// entries is exactly one allocation — the pair — however many entries the
// hand retires, because a retirement is a conditional delete on the index
// and nothing else: no free-list node, no closure. And an eviction round
// on its own allocates nothing on either spine: both shards hand their
// samples back by value, so no scratch escapes through the shard
// interface. A fresh SET nobody has read, against residents read twice,
// loses its duel before anything is built: no allocation at all, on
// either spine.
func TestEvictingSetIsOneAllocation(t *testing.T) {
	const valLen, keep = 64, 100
	budget := int64(keep * (valLen + PairOverhead))
	val := strings.Repeat("v", valLen)
	for _, c := range stringsCtors {
		s := c.new(WithShardBuckets(1024), WithoutMaintenance(),
			WithClock(func() int64 { return 1 }), WithByteBudget(budget))
		next := uint64(0)
		// overfill pushes the store past its budget behind the layer's
		// back, so the next write finds work for its round.
		overfill := func() {
			for s.BytesUsed() <= budget {
				next++
				p := newPair(val, 0, s.epoch.Load())
				s.charge(next, p.size())
				s.index.Set(next, p)
			}
		}
		if c.name == "hash" {
			evicted := s.evicted.Load()
			objects, _ := allocsPerRun(100, overfill, func() {
				next++
				s.SetHashed(next, val)
			})
			if got := s.evicted.Load() - evicted; objects != 1 || got < 100 {
				t.Errorf("SetHashed over budget: %d allocations and %d evictions in 100 writes; want 1 per write and at least one eviction each",
					objects, got)
			}
		}
		a, aval := admissionStore(t, c.new, 1)
		newcomer := uint64(1 << 40)
		objects, _ := allocsPerRun(100, func() {}, func() {
			newcomer++
			a.SetHashed(newcomer, aval)
		})
		if objects != 0 || a.EvictedNew() != 101 || a.Len() != 100 {
			t.Errorf("%s: a losing fresh SET made %d allocations; %d of 101 newcomers turned away, %d residents left; want 0, 101 and 100",
				c.name, objects, a.EvictedNew(), a.Len())
		}
		a.Close()
		rng := uint64(0x9E3779B97F4A7C15)
		evicted := s.evicted.Load()
		objects, _ = allocsPerRun(100, overfill, func() { s.evictSample(&rng, 1, s.epoch.Load(), 0) })
		if got := s.evicted.Load() - evicted; objects != 0 || got == 0 {
			t.Errorf("%s: an eviction round made %d allocations (%d evictions over 100 rounds); want none", c.name, objects, got)
		}
		s.Close()
	}
}

// TestRestatingSetIsElided pins which writes are decided without storing:
// a SET (or an MSET pair) of exactly the bytes a TTL-less live entry holds
// keeps the entry's pair — the same object, the same bytes_used — reports
// the key replaced, and counts on WritesElided. A SET of other bytes, a
// SETEX, and a SET over an entry with a TTL (it clears the deadline)
// store. A kept write is not a read: with a byte budget or without, it
// moves neither the key's count on the read sketch nor the entry's
// recency stamp.
func TestRestatingSetIsElided(t *testing.T) {
	eachStrings(t, func(t *testing.T, newStrings func(...Option) *Strings) {
		s := newStrings(WithoutMaintenance(), WithClock(func() int64 { return 1 }))
		defer s.Close()
		k := HashKey("k")
		pairOf := func() *pair { p, _ := s.index.Get(k); return p }
		step := func(name string, write func() bool, wantElided uint64, wantSame bool) {
			t.Helper()
			before, used := pairOf(), s.BytesUsed()
			if !write() {
				t.Fatalf("%s: reported a fresh insert over a live key", name)
			}
			if got := s.WritesElided(); got != wantElided {
				t.Fatalf("%s: WritesElided = %d, want %d", name, got, wantElided)
			}
			if same := pairOf() == before; same != wantSame {
				t.Fatalf("%s: pair kept = %v, want %v", name, same, wantSame)
			}
			if wantSame && s.BytesUsed() != used {
				t.Fatalf("%s: bytes_used moved %d -> %d on a kept write", name, used, s.BytesUsed())
			}
		}
		if s.Set("k", "v") {
			t.Fatal("first Set reported a replacement")
		}
		step("restating Set", func() bool { return s.Set("k", "v") }, 1, true)
		step("Set of new bytes", func() bool { return s.Set("k", "w") }, 1, false)
		step("Set of a longer value", func() bool { return s.Set("k", "ww") }, 1, false)
		step("SetEX of the same bytes", func() bool { return s.SetEX("k", "ww", 100) }, 1, false)
		step("Set over a TTL", func() bool { return s.Set("k", "ww") }, 1, false)
		if ttl := s.TTL("k"); ttl != -1 {
			t.Fatalf("TTL = %d after a Set over a TTL, want -1", ttl)
		}
		step("restating MSetHashed", func() bool {
			replaced := make([]bool, 1)
			s.MSetHashed([]uint64{k}, []string{"ww"}, replaced)
			return replaced[0]
		}, 2, true)
		s.Set("k", "")
		step("restating Set of the empty value", func() bool { return s.Set("k", "") }, 3, true)
		if v, ok := s.Get("k"); !ok || v != "" {
			t.Fatalf("Get = %q,%v, want \"\",true", v, ok)
		}

		for _, budget := range []int64{0, 1 << 20} {
			b := newStrings(WithoutMaintenance(), WithByteBudget(budget))
			b.Set("k", "v")
			p, _ := b.index.Get(k)
			epoch := b.epoch.Load()
			b.epoch.Store(epoch + 1)
			b.Set("k", "v")
			if p.touched.Load() != epoch || b.sketch != nil && b.sketch.count(k) != 0 {
				t.Fatalf("budget %d: a kept write moved the stamp %d → %d or counted a read", budget, epoch, p.touched.Load())
			}
			b.Close()
		}
	})
}
