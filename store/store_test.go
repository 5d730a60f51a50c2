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
// value), Get reads, Del removes, and Len tracks.
func TestStoreBasics(t *testing.T) {
	s := New(WithShardBuckets(16))
	defer s.Close()
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

// TestStoreShardRounding pins the constructor's provisioning of its one
// table: WithShardBuckets rounds up to a power of two, and the default
// table starts at 1024 buckets.
func TestStoreShardRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{1, 1}, {3, 4}, {16, 16}, {17, 32}, {1000, 1024}} {
		if got := New(WithShardBuckets(tc.in), WithoutMaintenance()).Buckets(); got != tc.want {
			t.Fatalf("WithShardBuckets(%d) -> %d buckets, want %d", tc.in, got, tc.want)
		}
	}
	if got := New(WithoutMaintenance()).Buckets(); got != 1024 {
		t.Fatalf("default store has %d buckets, want 1024", got)
	}
}

// TestStoreBatchOps pins MGet/MSet/MDel against the scalar surface.
func TestStoreBatchOps(t *testing.T) {
	s := New(WithShardBuckets(16))
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
	s := New(WithShardBuckets(16))
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
	s := New(WithShardBuckets(16))
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
// scheduler goroutine janitors the table; it is grown to ~1.6M elements
// and drained, and with NO caller Quiesce calls the table must return to
// its floor bucket count, and the heap to within a tenth of what the
// grown table took: the grown slabs and their chain nodes are garbage
// once the drain lands.
func TestStoreSchedulerReturnsFleetToFloor(t *testing.T) {
	const floor = 64
	total := uint64(1_600_000)
	if testing.Short() {
		total = 320_000
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := runtime.NumGoroutine()
	s := New(WithShardBuckets(floor), WithMaintenanceInterval(time.Millisecond))
	defer s.Close()
	empty := heap()
	// The store's maintenance costs one goroutine.
	if got := runtime.NumGoroutine(); got > before+1 {
		t.Fatalf("goroutines grew from %d to %d building a store; want exactly one scheduler", before, got)
	}

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
	// The table must have grown well past its floor for the drain to mean
	// anything.
	if got := s.Buckets(); got <= floor {
		t.Fatalf("table never grew (%d buckets)", got)
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

	// No Quiesce anywhere: the scheduler alone must notice the idle table
	// and drive its shrink chain home.
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if s.Buckets() == floor {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.Buckets(); got != floor {
		t.Errorf("buckets = %d after idle drain, want the %d floor", got, floor)
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
	s := New(WithShardBuckets(8))
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

// TestStoreSchedulerOnlyWhereMaintained pins which stores run a
// maintenance goroutine. A bare ordered store has nothing to maintain and
// starts none. An ordered string store starts one for its governance pass
// alone — its shard does not resize — and that pass sweeps an expired
// entry with no caller Quiesce. Close is idempotent on every store.
func TestStoreSchedulerOnlyWhereMaintained(t *testing.T) {
	before := runtime.NumGoroutine()
	o := NewOrdered(WithMaintenanceInterval(time.Millisecond))
	if o.sched != nil {
		t.Fatal("NewOrdered started a maintenance scheduler over a skip list")
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines grew from %d to %d building an ordered store; want none", before, got)
	}

	var now atomic.Int64
	now.Store(1)
	ss := NewSortedStrings(WithMaintenanceInterval(time.Millisecond), WithClock(now.Load))
	if ss.index.sched == nil {
		t.Fatal("NewSortedStrings started no scheduler for its governance pass")
	}
	if _, ok := ss.index.shard.(resizer); ok {
		t.Fatal("the sorted shard resizes: its scheduler would service more than the governance pass")
	}
	if got := runtime.NumGoroutine(); got > before+1 {
		t.Fatalf("goroutines grew from %d to %d building an ordered string store; want one", before, got)
	}
	ss.SetEXHashed(7, "v", 1)
	now.Add(2 * nsPerSec)
	swept := func() uint64 { _, n, _ := ss.TTLStats(); return n }
	// The sweep unmaps the entry before it counts it: wait for both.
	deadline := time.Now().Add(30 * time.Second)
	for (ss.Len() != 0 || swept() == 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := swept(); n != 1 || ss.Len() != 0 {
		t.Fatalf("expired entry not swept by the scheduler: Len %d, expired_swept %d", ss.Len(), n)
	}

	h, hs := New(), NewStrings()
	for _, closeStore := range []func(){o.Close, ss.Close, h.Close, hs.Close} {
		closeStore()
		closeStore() // idempotent
	}
}

// TestStoreEachVariants pins each key's outcome inside one batch against
// the scalar ops, duplicate keys included: the
// index's MSet/MDel counts and MGet's per-key reads, and the string layer's
// per-key replaced/found flags. A duplicate applies in arrival order — the
// second write replaces the first, the second delete misses.
func TestStoreEachVariants(t *testing.T) {
	keys := []uint64{5, 6, 5, 7, 6}
	vals := []uint64{50, 60, 51, 70, 61}
	delKeys := []uint64{5, 9, 5, 6}
	s := New(WithShardBuckets(64), WithoutMaintenance())
	if got := s.MSet(keys, vals); got != 3 {
		t.Fatalf("MSet fresh = %d, want 3", got)
	}
	got := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	s.MGet(keys, got, found)
	for i, want := range []uint64{51, 61, 51, 70, 61} {
		if !found[i] || got[i] != want {
			t.Fatalf("MGet[%d] = %d,%v; want the last write %d", i, got[i], found[i], want)
		}
	}
	if got := s.MDel(delKeys); got != 2 {
		t.Fatalf("MDel = %d, want 2", got)
	}
	s.MGet(keys, got, found)
	if found[0] || found[1] || !found[3] || got[3] != 70 {
		t.Fatalf("MGet after MDel = %v %v", got, found)
	}

	st := NewStrings(WithShardBuckets(64), WithoutMaintenance())
	svals := []string{"50", "60", "51", "70", "61"}
	replaced := make([]bool, len(keys))
	if got := st.MSetHashed(keys, svals, replaced); got != 3 {
		t.Fatalf("MSetHashed fresh = %d, want 3", got)
	}
	for i, want := range []bool{false, false, true, false, true} {
		if replaced[i] != want {
			t.Fatalf("replaced[%d] = %v, want %v", i, replaced[i], want)
		}
	}
	sgot := make([]string, len(keys))
	st.MGetHashed(keys, sgot, found)
	for i, want := range []string{"51", "61", "51", "70", "61"} {
		if !found[i] || sgot[i] != want {
			t.Fatalf("MGetHashed[%d] = %q,%v; want %q", i, sgot[i], found[i], want)
		}
	}
	delFound := make([]bool, len(delKeys))
	if got := st.MDelHashed(delKeys, delFound); got != 2 {
		t.Fatalf("MDelHashed = %d, want 2", got)
	}
	for i, want := range []bool{true, false, false, true} {
		if delFound[i] != want {
			t.Fatalf("MDelHashed found = %v", delFound)
		}
	}
	if s.Len() != 1 || st.Len() != 1 {
		t.Fatalf("Len = %d index, %d strings; want 1", s.Len(), st.Len())
	}
	if got, want := st.BytesUsed(), int64(2+PairOverhead); got != want {
		t.Fatalf("BytesUsed = %d, want %d", got, want)
	}
}

// TestStoreEachMatchesScalar cross-checks every key of large randomized
// batches against a model map applied one key at a time, so duplicates
// and keys spread over the whole table are both exercised: the index's
// counts and reads, and the string layer's per-key flags.
func TestStoreEachMatchesScalar(t *testing.T) {
	s := New(WithShardBuckets(64), WithoutMaintenance())
	st := NewStrings(WithShardBuckets(64), WithoutMaintenance())
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
				t.Fatalf("round %d %s: key %d reads %d,%v / %q,%v; model %d,%v",
					round, when, k, got[i], found[i], sgot[i], flags[i], v, ok)
			}
		}
		if s.Len() != len(model) || st.Len() != len(model) {
			t.Fatalf("round %d %s: Len = %d index, %d strings; model %d",
				round, when, s.Len(), st.Len(), len(model))
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
				t.Fatalf("round %d: MSetHashed replaced[%d] (key %d) = %v, model %v",
					round, i, k, flags[i], ok)
			}
			if !ok {
				wantIns++
			}
			model[k] = vals[i]
		}
		if ins != wantIns || sins != wantIns {
			t.Fatalf("round %d: inserted = %d index, %d strings; want %d", round, ins, sins, wantIns)
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
				t.Fatalf("round %d: MDelHashed found[%d] (key %d) = %v, model %v",
					round, i, k, flags[i], ok)
			}
			if ok {
				wantDel++
				delete(model, k)
			}
		}
		if del != wantDel || sdel != wantDel {
			t.Fatalf("round %d: deleted = %d index, %d strings; want %d", round, del, sdel, wantDel)
		}
		check(round, "after MDel")
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
	for _, bad := range []uint64{0, ^uint64(0)} {
		t.Run(fmt.Sprintf("key=%#x", bad), func(t *testing.T) {
			keys := []uint64{5, bad, 7}
			s := New(WithoutMaintenance())
			s.Set(5, 50)
			mustPanic(t, "MSet", func() { s.MSet(keys, []uint64{1, 2, 3}) })
			mustPanic(t, "MDel", func() { s.MDel(keys) })
			if v, ok := s.Get(5); !ok || v != 50 || s.Len() != 1 {
				t.Fatalf("index after the refused batches: Get(5) = %d,%v, Len = %d; want 50,true, 1", v, ok, s.Len())
			}
			for _, c := range stringsCtors {
				st := c.new(WithoutMaintenance())
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

// TestBatchAllocations pins the multi-key calls' allocation contract: a
// batch is a loop over the point ops and allocates nothing of its own. The
// string layer's MGetHashed and MDelHashed of 64 present keys allocate
// nothing; an MSetHashed that restates every key's value allocates nothing
// either (each write is decided on the index's validated read), and one of
// new values exactly one object per key (its pair). The index's MGet, MSet
// and MDel allocate nothing.
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
	for _, c := range stringsCtors {
		st := c.new(WithShardBuckets(1024), WithoutMaintenance())
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
				t.Errorf("%s: %s of %d present keys made %d allocations, want %d",
					c.name, op.name, n, got, op.want)
			}
		}
		st.Close()
	}
	s := New(WithShardBuckets(1024), WithoutMaintenance())
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
			t.Errorf("index: %s of %d present keys made %d allocations, want 0", op.name, n, got)
		}
	}
}
