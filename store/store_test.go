package store

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
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

// TestStoreEachVariants pins each key's outcome inside one batch against
// the scalar ops, on both sides of one shard, duplicate keys included: the
// index's MSet/MDel counts and MGet's per-key reads, and the string layer's
// per-key replaced/found flags. A duplicate applies in arrival order — the
// second write replaces the first, the second delete misses.
func TestStoreEachVariants(t *testing.T) {
	keys := []uint64{5, 6, 5, 7, 6}
	vals := []uint64{50, 60, 51, 70, 61}
	delKeys := []uint64{5, 9, 5, 6}
	for _, shards := range []int{1, 2, 4, 16} {
		s := New(WithShards(shards), WithShardBuckets(64), WithoutMaintenance())
		if got := s.MSet(keys, vals); got != 3 {
			t.Fatalf("shards=%d: MSet fresh = %d, want 3", shards, got)
		}
		got := make([]uint64, len(keys))
		found := make([]bool, len(keys))
		s.MGet(keys, got, found)
		for i, want := range []uint64{51, 61, 51, 70, 61} {
			if !found[i] || got[i] != want {
				t.Fatalf("shards=%d: MGet[%d] = %d,%v; want the last write %d", shards, i, got[i], found[i], want)
			}
		}
		if got := s.MDel(delKeys); got != 2 {
			t.Fatalf("shards=%d: MDel = %d, want 2", shards, got)
		}
		s.MGet(keys, got, found)
		if found[0] || found[1] || !found[3] || got[3] != 70 {
			t.Fatalf("shards=%d: MGet after MDel = %v %v", shards, got, found)
		}

		st := NewStrings(WithShards(shards), WithShardBuckets(64), WithoutMaintenance())
		svals := []string{"50", "60", "51", "70", "61"}
		replaced := make([]bool, len(keys))
		if got := st.MSetHashed(keys, svals, replaced); got != 3 {
			t.Fatalf("shards=%d: MSetHashed fresh = %d, want 3", shards, got)
		}
		for i, want := range []bool{false, false, true, false, true} {
			if replaced[i] != want {
				t.Fatalf("shards=%d: replaced[%d] = %v, want %v", shards, i, replaced[i], want)
			}
		}
		sgot := make([]string, len(keys))
		st.MGetHashed(keys, sgot, found)
		for i, want := range []string{"51", "61", "51", "70", "61"} {
			if !found[i] || sgot[i] != want {
				t.Fatalf("shards=%d: MGetHashed[%d] = %q,%v; want %q", shards, i, sgot[i], found[i], want)
			}
		}
		delFound := make([]bool, len(delKeys))
		if got := st.MDelHashed(delKeys, delFound); got != 2 {
			t.Fatalf("shards=%d: MDelHashed = %d, want 2", shards, got)
		}
		for i, want := range []bool{true, false, false, true} {
			if delFound[i] != want {
				t.Fatalf("shards=%d: MDelHashed found = %v", shards, delFound)
			}
		}
		if s.Len() != 1 || st.Len() != 1 {
			t.Fatalf("shards=%d: Len = %d index, %d strings; want 1", shards, s.Len(), st.Len())
		}
		if got, want := st.BytesUsed(), int64(2+PairOverhead); got != want {
			t.Fatalf("shards=%d: BytesUsed = %d, want %d", shards, got, want)
		}
	}
}

// TestStoreEachMatchesScalar cross-checks every key of large randomized
// batches against a model map applied one key at a time, so duplicates
// and keys spread over many shards are both exercised: the index's
// counts and reads, and the string layer's per-key flags.
func TestStoreEachMatchesScalar(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 16} {
		s := New(WithShards(shards), WithShardBuckets(64), WithoutMaintenance())
		st := NewStrings(WithShards(shards), WithShardBuckets(64), WithoutMaintenance())
		model := map[uint64]uint64{}
		const n = 2000
		keys := make([]uint64, n)
		vals := make([]uint64, n)
		svals := make([]string, n)
		got := make([]uint64, n)
		sgot := make([]string, n)
		flags := make([]bool, n)
		found := make([]bool, n)
		// check reads every key back through both layers against the model.
		check := func(round int, when string) {
			s.MGet(keys, got, found)
			st.MGetHashed(keys, sgot, flags)
			for i, k := range keys {
				v, ok := model[k]
				if found[i] != ok || flags[i] != ok || (ok && (got[i] != v || sgot[i] != strconv.FormatUint(v, 10))) {
					t.Fatalf("shards=%d round %d %s: key %d reads %d,%v / %q,%v; model %d,%v",
						shards, round, when, k, got[i], found[i], sgot[i], flags[i], v, ok)
				}
			}
			if s.Len() != len(model) || st.Len() != len(model) {
				t.Fatalf("shards=%d round %d %s: Len = %d index, %d strings; model %d",
					shards, round, when, s.Len(), st.Len(), len(model))
			}
		}
		r := rng.NewXorshift(42)
		for round := 0; round < 3; round++ {
			for i := range keys {
				keys[i] = r.Intn(512) + 1
				vals[i] = r.Next()
				svals[i] = strconv.FormatUint(vals[i], 10)
			}
			ins := s.MSet(keys, vals)
			sins := st.MSetHashed(keys, svals, flags)
			wantIns := 0
			for i, k := range keys {
				_, ok := model[k]
				if flags[i] != ok {
					t.Fatalf("shards=%d round %d: MSetHashed replaced[%d] (key %d) = %v, model %v",
						shards, round, i, k, flags[i], ok)
				}
				if !ok {
					wantIns++
				}
				model[k] = vals[i]
			}
			if ins != wantIns || sins != wantIns {
				t.Fatalf("shards=%d round %d: inserted = %d index, %d strings; want %d", shards, round, ins, sins, wantIns)
			}
			check(round, "after MSet")
			// Delete the first half: every key there is present, some twice.
			delKeys := keys[:n/2]
			del := s.MDel(delKeys)
			sdel := st.MDelHashed(delKeys, flags)
			wantDel := 0
			for i, k := range delKeys {
				_, ok := model[k]
				if flags[i] != ok {
					t.Fatalf("shards=%d round %d: MDelHashed found[%d] (key %d) = %v, model %v",
						shards, round, i, k, flags[i], ok)
				}
				if ok {
					wantDel++
					delete(model, k)
				}
			}
			if del != wantDel || sdel != wantDel {
				t.Fatalf("shards=%d round %d: deleted = %d index, %d strings; want %d", shards, round, del, sdel, wantDel)
			}
			check(round, "after MDel")
		}
	}
}

// TestBatchRejectsBadKeyWhole pins the multi-key writes' key check: every
// key is checked before any is charged or applied, so a batch holding one
// key outside the library's range panics and leaves the store — its
// entries and its byte counter — exactly as it was. The scalar writes
// check before they charge too.
func TestBatchRejectsBadKeyWhole(t *testing.T) {
	mustPanic := func(t *testing.T, what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s with an out-of-range key did not panic", what)
			}
		}()
		f()
	}
	for _, shards := range []int{1, 2} {
		for _, bad := range []uint64{0, ^uint64(0)} {
			t.Run(fmt.Sprintf("shards=%d/key=%#x", shards, bad), func(t *testing.T) {
				keys := []uint64{5, bad, 7}
				s := New(WithShards(shards), WithoutMaintenance())
				s.Set(5, 50)
				mustPanic(t, "MSet", func() { s.MSet(keys, []uint64{1, 2, 3}) })
				mustPanic(t, "MDel", func() { s.MDel(keys) })
				if v, ok := s.Get(5); !ok || v != 50 || s.Len() != 1 {
					t.Fatalf("index after the refused batches: Get(5) = %d,%v, Len = %d; want 50,true, 1", v, ok, s.Len())
				}
				for _, c := range stringsCtors {
					st := c.new(WithShards(shards), WithoutMaintenance())
					st.SetHashed(5, "v")
					used := st.BytesUsed()
					found := make([]bool, len(keys))
					mustPanic(t, c.name+" MSetHashed", func() { st.MSetHashed(keys, []string{"a", "b", "c"}, found) })
					mustPanic(t, c.name+" MDelHashed", func() { st.MDelHashed(keys, found) })
					mustPanic(t, c.name+" SetHashed", func() { st.SetHashed(bad, "x") })
					mustPanic(t, c.name+" SetEXHashed", func() { st.SetEXHashed(bad, "x", 100) })
					if v, ok := st.GetHashed(5); !ok || v != "v" || st.Len() != 1 || st.BytesUsed() != used {
						t.Fatalf("%s after the refused writes: Get(5) = %q,%v, Len = %d, BytesUsed = %d; want \"v\",true, 1, %d",
							c.name, v, ok, st.Len(), st.BytesUsed(), used)
					}
					st.Close()
				}
			})
		}
	}
}

// TestBatchAllocations pins the multi-key calls' allocation contract: a
// batch is a loop over the point ops and allocates nothing of its own. On
// 1 and 4 shards, the string layer's MGetHashed and MDelHashed of 64
// present keys allocate nothing; an MSetHashed that restates every key's
// value allocates nothing either (each write is decided on the index's
// validated read), and one of new values exactly one object per key (its
// pair). The index's MGet, MSet and MDel allocate nothing.
func TestBatchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation makes allocation counts meaningless")
	}
	const n = 64
	keys := make([]uint64, n)
	ivals := make([]uint64, n)
	vals := make([]string, n)
	fresh := make([]string, n)
	for i := range keys {
		keys[i] = uint64(i + 1)
		ivals[i] = uint64(i)
		vals[i] = strings.Repeat("v", 32)
		fresh[i] = strings.Repeat("w", 32)
	}
	out := make([]uint64, n)
	sout := make([]string, n)
	flags := make([]bool, n)
	for _, shards := range []int{1, 4} {
		for _, c := range stringsCtors {
			st := c.new(WithShards(shards), WithShardBuckets(1024), WithoutMaintenance())
			fill := func() { st.MSetHashed(keys, vals, flags) }
			fill()
			for _, op := range []struct {
				name    string
				want    uint64
				prep, f func()
			}{
				{"MGetHashed", 0, func() {}, func() { st.MGetHashed(keys, sout, flags) }},
				{"MSetHashed restating", 0, fill, fill},
				{"MSetHashed of new values", n, fill, func() { st.MSetHashed(keys, fresh, flags) }},
				{"MDelHashed", 0, fill, func() { st.MDelHashed(keys, flags) }},
			} {
				if got, _ := allocsPerRun(20, op.prep, op.f); got != op.want {
					t.Errorf("%s shards=%d: %s of %d present keys made %d allocations, want %d",
						c.name, shards, op.name, n, got, op.want)
				}
			}
			st.Close()
		}
		s := New(WithShards(shards), WithShardBuckets(1024), WithoutMaintenance())
		fill := func() { s.MSet(keys, ivals) }
		fill()
		for _, op := range []struct {
			name    string
			prep, f func()
		}{
			{"MGet", func() {}, func() { s.MGet(keys, out, flags) }},
			{"MSet", func() {}, fill},
			{"MDel", fill, func() { s.MDel(keys) }},
		} {
			if got, _ := allocsPerRun(20, op.prep, op.f); got != 0 {
				t.Errorf("index shards=%d: %s of %d present keys made %d allocations, want 0", shards, op.name, n, got)
			}
		}
	}
}
