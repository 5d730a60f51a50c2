package store

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/optik-go/optik/internal/rng"
)

// TestStoreBasics pins the kv surface: Set upserts (returning the old
// value), Get reads, Del removes, and the aggregate Len tracks.
func TestStoreBasics(t *testing.T) {
	s := New(WithShards(4), WithShardBuckets(16))
	defer s.Close()
	if got := s.Shards(); got != 4 {
		t.Fatalf("Shards = %d, want 4", got)
	}
	for k := uint64(1); k <= 1000; k++ {
		if old, replaced := s.Set(k, k*2); replaced || old != 0 {
			t.Fatalf("Set(%d) fresh = %d,%v", k, old, replaced)
		}
	}
	if got := s.Len(); got != 1000 {
		t.Fatalf("Len = %d, want 1000", got)
	}
	for k := uint64(1); k <= 1000; k++ {
		if v, ok := s.Get(k); !ok || v != k*2 {
			t.Fatalf("Get(%d) = %d,%v; want %d,true", k, v, ok, k*2)
		}
		if old, replaced := s.Set(k, k*3); !replaced || old != k*2 {
			t.Fatalf("Set(%d) replace = %d,%v; want %d,true", k, old, replaced, k*2)
		}
	}
	if got := s.Len(); got != 1000 {
		t.Fatalf("Len = %d after replacements, want 1000", got)
	}
	for k := uint64(1); k <= 500; k++ {
		if old, ok := s.Del(k); !ok || old != k*3 {
			t.Fatalf("Del(%d) = %d,%v; want %d,true", k, old, ok, k*3)
		}
	}
	if got := s.Len(); got != 500 {
		t.Fatalf("Len = %d after deletes, want 500", got)
	}
	if _, ok := s.Get(1); ok {
		t.Fatal("Get(1) found a deleted key")
	}
}

// TestStoreShardRounding pins the constructor's shard-count handling.
func TestStoreShardRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{1, 1}, {3, 4}, {16, 16}, {17, 32}, {100000, maxShards}} {
		s := New(WithShards(tc.in), WithoutMaintenance())
		if got := s.Shards(); got != tc.want {
			t.Fatalf("WithShards(%d) -> %d shards, want %d", tc.in, got, tc.want)
		}
	}
	if got := New(WithoutMaintenance()).Shards(); got < 1 {
		t.Fatal("default store has no shards")
	}
}

// TestStoreRoutingCoversShards checks the router actually spreads a dense
// key range over every shard — a broken shift would pile everything onto
// one shard and silently void the whole design.
func TestStoreRoutingCoversShards(t *testing.T) {
	s := New(WithShards(16), WithShardBuckets(16), WithoutMaintenance())
	const n = 100000
	for k := uint64(1); k <= n; k++ {
		s.Insert(k, k)
	}
	for i, sh := range s.shards {
		got := sh.Len()
		if got < n/len(s.shards)/2 || got > n/len(s.shards)*2 {
			t.Fatalf("shard %d holds %d of %d keys; router is not spreading", i, got, n)
		}
	}
	if got := s.Len(); got != n {
		t.Fatalf("aggregate Len = %d, want %d", got, n)
	}
}

// TestStoreBatchOps pins MGet/MSet/MDel against the scalar surface across
// shard boundaries.
func TestStoreBatchOps(t *testing.T) {
	s := New(WithShards(8), WithShardBuckets(16))
	defer s.Close()
	const n = 2000
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i + 1)
		vals[i] = uint64(i+1) * 5
	}
	if got := s.MSet(keys, vals); got != n {
		t.Fatalf("MSet fresh = %d, want %d", got, n)
	}
	if got := s.MSet(keys, vals); got != 0 {
		t.Fatalf("MSet repeat = %d, want 0", got)
	}
	outVals := make([]uint64, n)
	found := make([]bool, n)
	s.MGet(keys, outVals, found)
	for i := range keys {
		if !found[i] || outVals[i] != vals[i] {
			t.Fatalf("MGet[%d] = %d,%v; want %d,true", i, outVals[i], found[i], vals[i])
		}
	}
	if got := s.MDel(keys[:n/2]); got != n/2 {
		t.Fatalf("MDel = %d, want %d", got, n/2)
	}
	if got := s.MDel(keys[:n/2]); got != 0 {
		t.Fatalf("MDel repeat = %d, want 0", got)
	}
	if got := s.Len(); got != n/2 {
		t.Fatalf("Len = %d, want %d", got, n/2)
	}
	s.MGet(keys, outVals, found)
	for i := range keys {
		if found[i] != (i >= n/2) {
			t.Fatalf("MGet[%d] found = %v after MDel", i, found[i])
		}
	}
}

// TestStoreConcurrentConservation hammers the full surface — scalar and
// batched, strict and upsert — from many goroutines and requires exact
// conservation: the net of successful inserts minus deletes must equal
// the aggregate Len once quiescent.
func TestStoreConcurrentConservation(t *testing.T) {
	s := New(WithShards(8), WithShardBuckets(16))
	defer s.Close()
	const workers = 8
	iters := 20000
	if testing.Short() {
		iters = 5000
	}
	var net atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.NewXorshift(seed)
			batchK := make([]uint64, 8)
			batchV := make([]uint64, 8)
			for i := 0; i < iters; i++ {
				switch r.Intn(5) {
				case 0:
					key := r.Intn(8192) + 1
					if _, replaced := s.Set(key, seed); !replaced {
						net.Add(1)
					}
				case 1:
					key := r.Intn(8192) + 1
					if _, ok := s.Del(key); ok {
						net.Add(-1)
					}
				case 2:
					key := r.Intn(8192) + 1
					s.Get(key)
				case 3:
					for j := range batchK {
						batchK[j] = r.Intn(8192) + 1
						batchV[j] = seed
					}
					net.Add(int64(s.MSet(batchK, batchV)))
				default:
					for j := range batchK {
						batchK[j] = r.Intn(8192) + 1
					}
					net.Add(-int64(s.MDel(batchK)))
				}
			}
		}(uint64(g + 1))
	}
	wg.Wait()
	s.Quiesce()
	if got, want := int64(s.Len()), net.Load(); got != want {
		t.Fatalf("Len = %d, net = %d", got, want)
	}
}

// A batch whose keys repeat must count duplicates the way sequential
// scalar ops would (second upsert of one key replaces, second delete
// misses) — the conservation above depends on it.
func TestStoreBatchDuplicateKeys(t *testing.T) {
	s := New(WithShards(4), WithShardBuckets(16))
	defer s.Close()
	keys := []uint64{7, 7, 7, 9}
	vals := []uint64{1, 2, 3, 4}
	if got := s.MSet(keys, vals); got != 2 {
		t.Fatalf("MSet with duplicate keys inserted %d, want 2 (7 once, 9 once)", got)
	}
	if v, _ := s.Get(7); v != 3 {
		t.Fatalf("Get(7) = %d, want the last write 3", v)
	}
	if got := s.MDel(keys); got != 2 {
		t.Fatalf("MDel with duplicate keys deleted %d, want 2", got)
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("Len = %d, want 0", got)
	}
}

// TestStoreSchedulerReturnsFleetToFloor is the acceptance scenario: one
// scheduler goroutine janitors 16 shards; every shard is grown to ~100k
// elements and drained, and with NO caller Quiesce calls and NO per-table
// goroutines the whole fleet must return to its floor bucket count, and
// the heap to within a tenth of what the grown fleet took: the grown
// slabs and their chain nodes are garbage once the drain lands.
func TestStoreSchedulerReturnsFleetToFloor(t *testing.T) {
	const shards = 16
	const floor = 64
	perShard := 100_000
	if testing.Short() {
		perShard = 20_000
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := runtime.NumGoroutine()
	s := New(WithShards(shards), WithShardBuckets(floor), WithMaintenanceInterval(time.Millisecond))
	defer s.Close()
	empty := heap()
	// The whole fleet's maintenance costs one goroutine, not one per shard.
	if got := runtime.NumGoroutine(); got > before+1 {
		t.Fatalf("goroutines grew from %d to %d building a %d-shard store; want exactly one scheduler",
			before, got, shards)
	}

	total := uint64(shards * perShard)
	const workers = 8
	span := total / workers
	var wg sync.WaitGroup
	for g := uint64(0); g < workers; g++ {
		wg.Add(1)
		go func(lo, hi uint64) {
			defer wg.Done()
			for k := lo; k <= hi; k++ {
				s.Set(k, k*3)
			}
		}(g*span+1, (g+1)*span)
	}
	wg.Wait()
	if got, want := s.Len(), int(workers*span); got != want {
		t.Fatalf("Len = %d after ramp, want %d", got, want)
	}
	full := heap()
	// Every shard must have grown well past its floor for the drain to
	// mean anything.
	for i, sh := range s.shards {
		if got := sh.(resizer).Buckets(); got <= floor {
			t.Fatalf("shard %d never grew (%d buckets)", i, got)
		}
	}
	for g := uint64(0); g < workers; g++ {
		wg.Add(1)
		go func(lo, hi uint64) {
			defer wg.Done()
			for k := lo; k <= hi; k++ {
				s.Del(k)
			}
		}(g*span+1, (g+1)*span)
	}
	wg.Wait()

	// No Quiesce anywhere: the shared scheduler alone must notice the
	// idle fleet and drive every shard's shrink chain home.
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if s.Buckets() == shards*floor {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, sh := range s.shards {
		if got := sh.(resizer).Buckets(); got != floor {
			t.Errorf("shard %d: buckets = %d after idle drain, want the %d floor", i, got, floor)
		}
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("Len = %d after full drain, want 0", got)
	}
	after := heap()
	t.Logf("heap: empty %.1f MB, grown %.1f MB, drained %.1f MB", float64(empty)/1e6, float64(full)/1e6, float64(after)/1e6)
	if after > empty+(full-empty)/10 {
		t.Fatalf("heap %.1f MB after the idle drain, want at most %.1f MB", float64(after)/1e6, float64(empty+(full-empty)/10)/1e6)
	}
	runtime.KeepAlive(s)
}

// TestStoreCloseLeavesShardsUsable pins Close's contract.
func TestStoreCloseLeavesShardsUsable(t *testing.T) {
	s := New(WithShards(2), WithShardBuckets(8))
	s.Set(1, 10)
	s.Close()
	s.Close() // idempotent
	if _, replaced := s.Set(1, 20); !replaced {
		t.Fatal("Set after Close did not see the key")
	}
	if v, ok := s.Get(1); !ok || v != 20 {
		t.Fatalf("Get after Close = %d,%v", v, ok)
	}
	s.Quiesce() // manual maintenance still available
}

// TestStoreEachVariants pins MSetEach/MDelEach against the scalar ops:
// per-key outcomes and old values must match what the same sequence of
// Set/Del calls reports, at shard counts on both sides of the 1-shard
// fast path, including duplicate keys inside one batch.
func TestStoreEachVariants(t *testing.T) {
	for _, shards := range []int{1, 8} {
		s := New(WithShards(shards), WithShardBuckets(64), WithoutMaintenance())
		keys := []uint64{5, 6, 5, 7, 6}
		vals := []uint64{50, 60, 51, 70, 61}
		old := make([]uint64, len(keys))
		replaced := make([]bool, len(keys))
		if got := s.MSetEach(keys, vals, old, replaced); got != 3 {
			t.Fatalf("shards=%d: MSetEach fresh = %d, want 3", shards, got)
		}
		wantRepl := []bool{false, false, true, false, true}
		for i := range keys {
			if replaced[i] != wantRepl[i] {
				t.Fatalf("shards=%d: replaced[%d] = %v, want %v", shards, i, replaced[i], wantRepl[i])
			}
		}
		if old[2] != 50 || old[4] != 60 {
			t.Fatalf("shards=%d: old = %v", shards, old)
		}
		if v, _ := s.Get(5); v != 51 {
			t.Fatalf("shards=%d: Get(5) = %d, want last write 51", shards, v)
		}
		delKeys := []uint64{5, 9, 5, 6}
		found := make([]bool, len(delKeys))
		if got := s.MDelEach(delKeys, old[:len(delKeys)], found); got != 2 {
			t.Fatalf("shards=%d: MDelEach = %d, want 2", shards, got)
		}
		if !found[0] || found[1] || found[2] || !found[3] {
			t.Fatalf("shards=%d: MDelEach found = %v", shards, found)
		}
		if old[0] != 51 || old[3] != 61 {
			t.Fatalf("shards=%d: MDelEach old = %v", shards, old[:len(delKeys)])
		}
		if got := s.Len(); got != 1 {
			t.Fatalf("shards=%d: Len = %d, want 1", shards, got)
		}
	}
}

// TestStoreEachMatchesScalar cross-checks the Each variants against a
// model map over a larger randomized batch, so the scatter/gather
// bookkeeping is exercised across many shards.
func TestStoreEachMatchesScalar(t *testing.T) {
	s := New(WithShards(16), WithShardBuckets(64), WithoutMaintenance())
	model := map[uint64]uint64{}
	const n = 2000
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	rnd := uint64(42)
	next := func() uint64 { rnd ^= rnd << 13; rnd ^= rnd >> 7; rnd ^= rnd << 17; return rnd }
	for round := 0; round < 3; round++ {
		for i := range keys {
			keys[i] = next()%512 + 1
			vals[i] = next()
		}
		old := make([]uint64, n)
		replaced := make([]bool, n)
		ins := s.MSetEach(keys, vals, old, replaced)
		wantIns := 0
		for i := range keys {
			prev, ok := model[keys[i]]
			if ok != replaced[i] || (ok && prev != old[i]) {
				t.Fatalf("round %d key %d: got old %d replaced %v, model %d %v",
					round, keys[i], old[i], replaced[i], prev, ok)
			}
			if !ok {
				wantIns++
			}
			model[keys[i]] = vals[i]
		}
		if ins != wantIns {
			t.Fatalf("round %d: inserted = %d, want %d", round, ins, wantIns)
		}
		// Delete a random half and check per-key outcomes.
		delKeys := keys[:n/2]
		found := make([]bool, n/2)
		del := s.MDelEach(delKeys, old[:n/2], found)
		wantDel := 0
		for i, k := range delKeys {
			prev, ok := model[k]
			if found[i] != ok || (ok && old[i] != prev) {
				t.Fatalf("round %d del key %d: got %d,%v model %d,%v", round, k, old[i], found[i], prev, ok)
			}
			if ok {
				wantDel++
				delete(model, k)
			}
		}
		if del != wantDel {
			t.Fatalf("round %d: deleted = %d, want %d", round, del, wantDel)
		}
		if s.Len() != len(model) {
			t.Fatalf("round %d: Len = %d, model %d", round, s.Len(), len(model))
		}
	}
}
