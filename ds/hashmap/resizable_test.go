package hashmap

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/optik-go/optik/internal/core"
	"github.com/optik-go/optik/internal/rng"
)

// TestBucketIsOneCacheLine pins the slab layout: a bucket must be exactly
// one cache line, consecutive buckets in a slab must not overlap lines,
// and — now that newBucketSlab verifies placement instead of hoping for
// it — every slab base must be 64-byte aligned, across size classes and
// in both the fixed and the resizable table.
func TestBucketIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(bucket[uint64]{}); got != core.CacheLineSize {
		t.Fatalf("bucket size = %d, want %d", got, core.CacheLineSize)
	}
	s := NewSlab(8)
	stride := uintptr(unsafe.Pointer(&s.buckets[1])) - uintptr(unsafe.Pointer(&s.buckets[0]))
	if stride != core.CacheLineSize {
		t.Fatalf("bucket stride = %d, want %d", stride, core.CacheLineSize)
	}
	// Exercise small, odd, and large-object size classes.
	for _, n := range []int{1, 5, 8, 13, 100, 1024, 1000, 100_000} {
		slab := newBucketSlab[uint64](n)
		if got := uintptr(unsafe.Pointer(&slab[0])) % core.CacheLineSize; got != 0 {
			t.Fatalf("newBucketSlab(%d) base not 64-byte aligned (offset %d)", n, got)
		}
	}
	r := NewResizable(64)
	if got := uintptr(unsafe.Pointer(&r.root.Load().buckets[0])) % core.CacheLineSize; got != 0 {
		t.Fatalf("resizable slab base not 64-byte aligned (offset %d)", got)
	}
}

// TestSlabInlineOverflow drives one bucket through the inline prefix into
// the overflow chain and back.
func TestSlabInlineOverflow(t *testing.T) {
	s := NewSlab(1) // every key collides
	for k := uint64(1); k <= 2*inlinePairs; k++ {
		if !s.Insert(k, k*10) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}
	if got := s.Len(); got != 2*inlinePairs {
		t.Fatalf("Len = %d, want %d", got, 2*inlinePairs)
	}
	for k := uint64(1); k <= 2*inlinePairs; k++ {
		if v, ok := s.Search(k); !ok || v != k*10 {
			t.Fatalf("Search(%d) = %v,%v", k, v, ok)
		}
	}
	// Chain must be sorted (keys beyond the inline prefix).
	b := &s.buckets[0]
	prev := uint64(0)
	for cur := b.head.Load(); cur != nil; cur = cur.next.Load() {
		if cur.key.Load() <= prev {
			t.Fatalf("chain not strictly ascending: %d after %d", cur.key.Load(), prev)
		}
		prev = cur.key.Load()
	}
	// Delete everything, inline and chained.
	for k := uint64(1); k <= 2*inlinePairs; k++ {
		if v, ok := s.Delete(k); !ok || v != k*10 {
			t.Fatalf("Delete(%d) = %v,%v", k, v, ok)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after draining", s.Len())
	}
}

// TestResizableQuickSequentialEquivalence ports the ds/list property-test
// harness: random op sequences against a map model, on a table that starts
// at a single bucket so growth triggers constantly.
func TestResizableQuickSequentialEquivalence(t *testing.T) {
	f := func(ops []uint16) bool {
		m := NewResizable(1)
		model := map[uint64]uint64{}
		for _, raw := range ops {
			key := uint64(raw%32) + 1
			switch (raw / 32) % 3 {
			case 0:
				got := m.Insert(key, key*7)
				_, present := model[key]
				if got == present {
					return false
				}
				if got {
					model[key] = key * 7
				}
			case 1:
				gotV, got := m.Delete(key)
				wantV, want := model[key]
				if got != want || (got && gotV != wantV) {
					return false
				}
				delete(model, key)
			default:
				gotV, got := m.Search(key)
				wantV, want := model[key]
				if got != want || (got && gotV != wantV) {
					return false
				}
			}
		}
		return m.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// tables returns the root slab chain.
func (r *Resizable[V]) tables() []*rtable[V] {
	var ts []*rtable[V]
	for t := r.root.Load(); t != nil; t = t.next.Load() {
		ts = append(ts, t)
	}
	return ts
}

// entries collects every live entry reachable from the root chain,
// failing on duplicates across slabs. It assumes the table is quiescent.
func (r *Resizable[V]) entries(t *testing.T) map[uint64]V {
	t.Helper()
	got := map[uint64]V{}
	for _, rt := range r.tables() {
		for i := range rt.buckets {
			b := &rt.buckets[i]
			head := b.head.Load()
			if head == forwardedNode[V]() {
				continue // contents live in a deeper slab
			}
			for s := range b.inline {
				if k := b.inline[s].key.Load(); k != 0 {
					if _, dup := got[k]; dup {
						t.Fatalf("duplicate key %d across slabs", k)
					}
					got[k] = core.LoadWord(&b.inline[s].val)
				}
			}
			for cur := head; cur != nil; cur = cur.next.Load() {
				k := cur.key.Load()
				if _, dup := got[k]; dup {
					t.Fatalf("duplicate key %d across slabs", k)
				}
				got[k] = core.LoadWord(&cur.val)
			}
		}
	}
	return got
}

// checkMigrationState verifies the quiescent migration invariants: the
// forwarded-bucket count of every slab matches its migrated counter (each
// claim forwards one bucket growing, a pair shrinking), never exceeding
// the slab size, and only slabs with a successor have forwarded buckets.
func (r *Resizable[V]) checkMigrationState(t *testing.T) {
	t.Helper()
	for _, rt := range r.tables() {
		fwd := int64(0)
		for i := range rt.buckets {
			if rt.buckets[i].head.Load() == forwardedNode[V]() {
				fwd++
			}
		}
		mig := rt.migrated.Load()
		next := rt.next.Load()
		perClaim := int64(1)
		if next != nil && len(next.buckets) < len(rt.buckets) {
			perClaim = 2
		}
		if fwd != mig*perClaim {
			t.Fatalf("slab(%d buckets): %d forwarded buckets, migrated counter %d (×%d per claim)",
				len(rt.buckets), fwd, mig, perClaim)
		}
		if next != nil && mig > claims(rt, next) {
			t.Fatalf("slab(%d buckets): migrated counter %d exceeds %d claims", len(rt.buckets), mig, claims(rt, next))
		}
		if fwd > 0 && next == nil {
			t.Fatalf("slab(%d buckets): forwarded buckets but no next slab", len(rt.buckets))
		}
	}
}

// TestResizableGrowthConverges checks that sequential load grows the table,
// that helping updates finish the migration, and that no entry is lost or
// duplicated on the way.
func TestResizableGrowthConverges(t *testing.T) {
	m := NewResizable(2)
	model := map[uint64]uint64{}
	r := rng.NewXorshift(42)
	for i := 0; i < 20000; i++ {
		key := r.Intn(30000) + 1
		if r.Intn(10) == 0 {
			if _, ok := m.Delete(key); ok != (model[key] != 0) {
				t.Fatalf("Delete(%d) disagreed with model", key)
			}
			delete(model, key)
		} else {
			if m.Insert(key, key*3) != (model[key] == 0) {
				t.Fatalf("Insert(%d) disagreed with model", key)
			}
			model[key] = key * 3
		}
	}
	if m.Buckets() <= 2 {
		t.Fatalf("table never grew: %d buckets", m.Buckets())
	}
	// Failed updates still help: drive any in-flight migration home.
	for i := 0; m.root.Load().next.Load() != nil; i++ {
		m.Insert(1, 3)
		if i > 1<<22 {
			t.Fatal("migration did not converge")
		}
	}
	model[1] = 3
	if got := m.entries(t); len(got) != len(model) {
		t.Fatalf("entries = %d, model = %d", len(got), len(model))
	} else {
		for k, v := range model {
			if got[k] != v {
				t.Fatalf("key %d: got %d, want %d", k, got[k], v)
			}
		}
	}
	m.checkMigrationState(t)
	if m.Len() != len(model) {
		t.Fatalf("Len = %d, model = %d", m.Len(), len(model))
	}
}

// TestResizableConcurrentThroughResize is the race-detector stress: workers
// run Search/Insert/Delete on disjoint key ranges while the table resizes
// underneath them. Each worker is the only mutator of its keys, so
// linearizability forces every one of its operations to agree exactly with
// its private model — a lost key, duplicate, or torn pair during migration
// shows up as a disagreement. A monitor asserts migration is monotone.
func TestResizableConcurrentThroughResize(t *testing.T) {
	const workers = 8
	span := uint64(4000)
	iters := 60000
	if testing.Short() {
		span, iters = 1500, 20000
	}
	m := NewResizable(2)
	stop := make(chan struct{})

	// Monitor: the root slab's migrated counter must never decrease, and a
	// forwarded bucket must stay forwarded.
	var monWG sync.WaitGroup
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		var lastT *rtable[uint64]
		var lastM int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			rt := m.root.Load()
			mg := rt.migrated.Load()
			if rt == lastT && mg < lastM {
				t.Errorf("migration went backwards: %d -> %d", lastM, mg)
				return
			}
			lastT, lastM = rt, mg
			runtime.Gosched()
		}
	}()

	models := make([]map[uint64]uint64, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			model := map[uint64]uint64{}
			models[id] = model
			r := rng.NewXorshift(id + 1)
			base := id*span + 1
			for i := 0; i < iters; i++ {
				key := base + r.Intn(span)
				switch r.Intn(4) {
				case 0:
					want := model[key] == 0
					if got := m.Insert(key, key*7); got != want {
						t.Errorf("worker %d: Insert(%d) = %v, want %v", id, key, got, want)
						return
					}
					model[key] = key * 7
				case 1:
					wantV, want := model[key], model[key] != 0
					gotV, got := m.Delete(key)
					if got != want || (got && gotV != wantV) {
						t.Errorf("worker %d: Delete(%d) = %v,%v want %v,%v", id, key, gotV, got, wantV, want)
						return
					}
					delete(model, key)
				default:
					wantV, want := model[key], model[key] != 0
					gotV, got := m.Search(key)
					if got != want || (got && gotV != wantV) {
						t.Errorf("worker %d: Search(%d) = %v,%v want %v,%v", id, key, gotV, got, wantV, want)
						return
					}
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	close(stop)
	monWG.Wait()
	if t.Failed() {
		return
	}

	want := map[uint64]uint64{}
	for _, model := range models {
		for k, v := range model {
			want[k] = v
		}
	}
	got := m.entries(t)
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("lost key %d (got %d, want %d)", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("entries = %d, want %d", len(got), len(want))
	}
	m.checkMigrationState(t)
	if m.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(want))
	}
	if m.Buckets() <= 2 {
		t.Fatalf("table never grew under load: %d buckets", m.Buckets())
	}
}

// TestResizableInsertRamp is the acceptance scenario: prefill 1k keys, then
// an insert-heavy concurrent ramp to 1M elements (200k under -short), with
// the full invariant suite checked at the end.
func TestResizableInsertRamp(t *testing.T) {
	target := 1_000_000
	if testing.Short() {
		target = 200_000
	}
	const start = 1000
	m := NewResizable(1024)
	for k := uint64(1); k <= start; k++ {
		if !m.Insert(k, k) {
			t.Fatalf("prefill Insert(%d) failed", k)
		}
	}

	const workers = 8
	var mu sync.Mutex
	inserted := start
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			r := rng.NewXorshift(id*0x9E3779B9 + 7)
			local := 0
			for {
				// Batch the shared progress check so the counter mutex is
				// not the bottleneck being measured.
				for i := 0; i < 512; i++ {
					key := r.Intn(uint64(4*target)) + 1
					if m.Insert(key, key) {
						local++
					}
				}
				mu.Lock()
				inserted += local
				done := inserted >= target
				mu.Unlock()
				local = 0
				if done {
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()

	if got := m.Len(); got != inserted {
		t.Fatalf("Len = %d, want %d successful inserts", got, inserted)
	}
	// The ramp must actually have resized, repeatedly.
	if m.Buckets() < target/(2*maxLoad) {
		t.Fatalf("final bucket count %d too small for %d elements", m.Buckets(), inserted)
	}
	m.checkMigrationState(t)
	if got := len(m.entries(t)); got != inserted {
		t.Fatalf("entries = %d, want %d", got, inserted)
	}
}
