package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStringsBasic pins the scalar surface: set/get/del, replace
// semantics, and the arena recycling a released slot.
func TestStringsBasic(t *testing.T) {
	s := NewStrings(WithShards(2), WithShardBuckets(64), WithoutMaintenance())
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
	// The replace and the delete each released a slot; the next two Puts
	// must recycle instead of growing the arena.
	allocated := s.Values().Allocated()
	if free := s.Values().FreeLen(); free != 2 {
		t.Fatalf("free list = %d, want 2", free)
	}
	s.Set("b", "3")
	s.Set("c", "4")
	if got := s.Values().Allocated(); got != allocated {
		t.Fatalf("arena grew %d → %d with slots on the free list", allocated, got)
	}
}

// TestStringsMGet pins the batched read path, including the recycled-slot
// fallback being invisible to callers.
func TestStringsMGet(t *testing.T) {
	s := NewStrings(WithShards(4), WithShardBuckets(64), WithoutMaintenance())
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
// recycling writers: a reader must only ever observe a value that was
// written for the key it asked about, never another key's pair through a
// recycled slot.
func TestStringsConcurrentRecycle(t *testing.T) {
	s := NewStrings(WithShards(2), WithShardBuckets(64), WithoutMaintenance())
	defer s.Close()

	// The interleaving the hammer below hopes for, staged once by hand: a
	// reader holding key 10's slot handle while the slot is recycled to
	// key 99. The validated read (the OPTIK move at the value layer) must
	// fail the hash check for the old key — restarting through the index,
	// where 10 is gone — instead of returning the other key's value.
	s.SetHashed(10, "ten")
	slot, _ := s.index.Get(10)
	if _, p := s.read(10, slot, true); p == nil || p.val != "ten" {
		t.Fatalf("read(10) before recycling = %v", p)
	}
	s.DelHashed(10)
	s.SetHashed(99, "ninety-nine")
	if slot2, _ := s.index.Get(99); slot2 != slot {
		t.Fatalf("free list did not recycle: got slot %d, want %d", slot2, slot)
	}
	if _, p := s.read(10, slot, true); p != nil {
		t.Fatalf("stale read validated against a recycled slot: %q", p.val)
	}
	if _, p := s.read(99, slot, true); p == nil || p.val != "ninety-nine" {
		t.Fatalf("read(99) after recycle = %v", p)
	}
	s.DelHashed(99)

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

// TestStringsHashedBatches drives the hash-level batch APIs end to end
// against the scalar surface: same outcomes, value-slot conservation
// (every replaced/deleted slot recycles through the free list), and
// duplicate hashes applying in order.
func TestStringsHashedBatches(t *testing.T) {
	s := NewStrings(WithShards(4), WithShardBuckets(64), WithoutMaintenance())
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
	// The duplicate's first slot must have recycled.
	if got := s.Values().FreeLen(); got != 1 {
		t.Fatalf("FreeLen = %d after duplicate overwrite, want 1", got)
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
	// 4 puts, 3 live slots released (1 dup overwrite + 2 deletes): the
	// free list carries all of them for the next Put to recycle.
	if got := s.Values().FreeLen(); got != 3 {
		t.Fatalf("FreeLen = %d, want 3", got)
	}
	if s.Set("e", "9"); s.Values().Allocated() != 4 {
		t.Fatalf("Allocated = %d: Set did not recycle a batch-released slot", s.Values().Allocated())
	}
}

// TestStringsHashedBatchConcurrent races hashed batch writers/deleters
// with scalar readers on an overlapping keyspace; under -race this is
// the data-race coverage for the batch release path, and the final Len
// must match the model of net inserts.
func TestStringsHashedBatchConcurrent(t *testing.T) {
	s := NewStrings(WithShards(4), WithShardBuckets(64), WithoutMaintenance())
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
}
