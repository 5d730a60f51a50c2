package hashmap

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/optik-go/optik/internal/core"
	"github.com/optik-go/optik/internal/rng"
)

// TestMigratePairMergesChains is the white-box test of the shrink merge
// critical section: two source buckets, both spilled into overflow chains,
// must land in their single half-table target bucket with nothing lost,
// nothing duplicated, and the chain still sorted, and both sources must be
// forwarded.
func TestMigratePairMergesChains(t *testing.T) {
	old := newRTable[uint64](8)
	next := newRTable[uint64](4)
	old.next.Store(next)

	// Brute-force keys that hash to the pair (2, 6) of the 8-bucket slab;
	// all of them hash to bucket 2 of the 4-bucket slab (the pair's target).
	var keys []uint64
	for k := uint64(1); len(keys) < 12; k++ {
		if i := old.index(k); i == 2 || i == 6 {
			if next.index(k) != 2 {
				t.Fatalf("key %d: old bucket %d but new bucket %d, want 2", k, i, next.index(k))
			}
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		if !old.buckets[old.index(k)].insert(k, k*11) {
			t.Fatalf("seed insert(%d) failed", k)
		}
	}

	old.migratePair(2, next, nil)

	if old.buckets[2].head.Load() != forwardedNode[uint64]() || old.buckets[6].head.Load() != forwardedNode[uint64]() {
		t.Fatal("pair not forwarded after migratePair")
	}
	got := map[uint64]uint64{}
	b := &next.buckets[2]
	for s := range b.inline {
		if k := b.inline[s].key.Load(); k != 0 {
			got[k] = core.LoadWord(&b.inline[s].val)
		}
	}
	prev := uint64(0)
	for cur := b.head.Load(); cur != nil; cur = cur.next.Load() {
		k := cur.key.Load()
		if k <= prev {
			t.Fatalf("merged chain not strictly ascending: %d after %d", k, prev)
		}
		prev = k
		if _, dup := got[k]; dup {
			t.Fatalf("key %d duplicated across inline and chain", k)
		}
		got[k] = core.LoadWord(&cur.val)
	}
	if len(got) != len(keys) {
		t.Fatalf("target bucket holds %d entries, want %d", len(got), len(keys))
	}
	for _, k := range keys {
		if got[k] != k*11 {
			t.Fatalf("key %d: got %d, want %d", k, got[k], k*11)
		}
	}
}

// TestResizableShrinkConverges drives the full shrink protocol end to end
// sequentially: grow under inserts, drain almost everything, quiesce, and
// require the table back inside the hysteresis band with the survivors
// intact — no lost keys, no duplicates, migration fully retired.
func TestResizableShrinkConverges(t *testing.T) {
	const total, keep = 8192, 128
	m := NewResizable(64)
	for k := uint64(1); k <= total; k++ {
		if !m.Insert(k, k*3) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}
	m.Quiesce()
	peak := m.Buckets()
	if peak < total/(2*maxLoad) {
		t.Fatalf("table never grew: %d buckets for %d keys", peak, total)
	}
	for k := uint64(1); k <= total-keep; k++ {
		if v, ok := m.Delete(k); !ok || v != k*3 {
			t.Fatalf("Delete(%d) = %v,%v", k, v, ok)
		}
	}
	m.Quiesce()
	if m.root.Load().next.Load() != nil {
		t.Fatal("quiesce left a migration in flight")
	}
	if b := m.Buckets(); b >= peak || b > keep*shrinkLoad || b < 64 {
		t.Fatalf("buckets = %d after drain (peak %d, floor 64, want <= %d)", b, peak, keep*shrinkLoad)
	}
	m.checkMigrationState(t)
	if got := m.Len(); got != keep {
		t.Fatalf("Len = %d, want %d", got, keep)
	}
	got := m.entries(t)
	if len(got) != keep {
		t.Fatalf("entries = %d, want %d", len(got), keep)
	}
	for k := uint64(total - keep + 1); k <= total; k++ {
		if v, ok := m.Search(k); !ok || v != k*3 {
			t.Fatalf("survivor Search(%d) = %v,%v", k, v, ok)
		}
	}
}

// TestResizableChurnCycleBucketsReturn mirrors the acceptance scenario:
// grow to N, delete down to N/16, quiesce — the bucket count must return
// to within 2× of the initial one (and never below the floor).
func TestResizableChurnCycleBucketsReturn(t *testing.T) {
	const n, start = 16384, 2048
	m := NewResizable(start)
	for k := uint64(1); k <= n; k++ {
		m.Insert(k, k)
	}
	m.Quiesce()
	if peak := m.Buckets(); peak < n/(2*maxLoad) {
		t.Fatalf("peak buckets = %d, want >= %d", peak, n/(2*maxLoad))
	}
	for k := uint64(1); k <= n-n/16; k++ {
		m.Delete(k)
	}
	m.Quiesce()
	if b := m.Buckets(); b > 2*start || b < start {
		t.Fatalf("buckets = %d after churn cycle, want within [%d, %d]", b, start, 2*start)
	}
	if m.Resizes() < 3 {
		t.Fatalf("Resizes = %d, want grows plus shrinks", m.Resizes())
	}
	m.checkMigrationState(t)
	if got := m.Len(); got != n/16 {
		t.Fatalf("Len = %d, want %d", got, n/16)
	}
}

// TestResizableFlappingBounded oscillates the element count around the
// grow boundary and then around the shrink boundary, quiescing at every
// swing to hand the thresholds maximal opportunity, and asserts the
// hysteresis band keeps the total resize count bounded.
func TestResizableFlappingBounded(t *testing.T) {
	m := NewResizable(64) // grow boundary at 128 elements
	for k := uint64(1); k <= 128; k++ {
		m.Insert(k, k)
	}
	for cycle := 0; cycle < 200; cycle++ {
		for k := uint64(129); k <= 144; k++ {
			m.Insert(k, k)
		}
		m.Quiesce()
		for k := uint64(129); k <= 144; k++ {
			m.Delete(k)
		}
		m.Quiesce()
	}
	// Crossing 128 grows once, to 128 buckets; the shrink boundary is then
	// 32 — an 8× gap the oscillation cannot reach.
	if got := m.Resizes(); got > 1 {
		t.Fatalf("grow-boundary oscillation caused %d resizes, want <= 1", got)
	}
	for k := uint64(48); k <= 128; k++ {
		m.Delete(k)
	}
	for cycle := 0; cycle < 200; cycle++ {
		for k := uint64(32); k <= 47; k++ {
			m.Delete(k)
		}
		m.Quiesce()
		for k := uint64(32); k <= 47; k++ {
			m.Insert(k, k)
		}
		m.Quiesce()
	}
	// Crossing 32 shrinks once, to the 64-bucket floor; below the floor
	// nothing ever shrinks again, and growing needs 128 elements.
	if got := m.Resizes(); got > 2 {
		t.Fatalf("shrink-boundary oscillation caused %d resizes, want <= 2", got)
	}
	m.checkMigrationState(t)
}

// TestResizableConcurrentShrinkReaders is the race-detector stress for the
// halving path: workers drain 15/16 of their disjoint key ranges while
// reader goroutines continuously search keys that are never deleted — a
// key going missing mid-shrink, a torn pair, or a blocked reader shows up
// immediately. The table must come back inside the hysteresis band.
func TestResizableConcurrentShrinkReaders(t *testing.T) {
	const workers = 4
	span := uint64(2048)
	if testing.Short() {
		span = 1024
	}
	m := NewResizable(128)
	keyVal := func(k uint64) uint64 { return k*7 + 1 }
	kept := func(k uint64, base uint64) bool { return (k-base-1)%16 == 0 }

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			base := id * span
			for k := base + 1; k <= base+span; k++ {
				if !m.Insert(k, keyVal(k)) {
					t.Errorf("Insert(%d) failed", k)
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	m.Quiesce()
	peak := m.Buckets()

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	for rd := 0; rd < 2; rd++ {
		readerWG.Add(1)
		go func(seed uint64) {
			defer readerWG.Done()
			r := rng.NewXorshift(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				base := (r.Next() % workers) * span
				k := base + 1 + 16*(r.Next()%(span/16))
				if !kept(k, base) {
					t.Errorf("reader picked a non-kept key %d", k)
					return
				}
				if v, ok := m.Search(k); !ok || v != keyVal(k) {
					t.Errorf("kept key %d lost during shrink: got %v,%v", k, v, ok)
					return
				}
			}
		}(uint64(rd + 1))
	}

	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			base := id * span
			for k := base + 1; k <= base+span; k++ {
				if kept(k, base) {
					continue
				}
				if v, ok := m.Delete(k); !ok || v != keyVal(k) {
					t.Errorf("Delete(%d) = %v,%v", k, v, ok)
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	m.Quiesce()
	close(stop)
	readerWG.Wait()
	if t.Failed() {
		return
	}

	remaining := int(workers * span / 16)
	if m.root.Load().next.Load() != nil {
		t.Fatal("quiesce left a migration in flight")
	}
	if b := m.Buckets(); b >= peak || b > remaining*shrinkLoad || b < 128 {
		t.Fatalf("buckets = %d after concurrent drain (peak %d, %d remaining)", b, peak, remaining)
	}
	m.checkMigrationState(t)
	if got := m.Len(); got != remaining {
		t.Fatalf("Len = %d, want %d", got, remaining)
	}
	got := m.entries(t)
	if len(got) != remaining {
		t.Fatalf("entries = %d, want %d", len(got), remaining)
	}
	for k, v := range got {
		base := (k - 1) / span * span
		if !kept(k, base) || v != keyVal(k) {
			t.Fatalf("unexpected survivor %d=%d", k, v)
		}
	}
}

// TestResizableLenClamped pins the Len contract: a transiently negative
// striped sum (a reader catching a delete's decrement before the matching
// insert's increment) must read as 0, never as a negative or wrapped
// count.
func TestResizableLenClamped(t *testing.T) {
	m := NewResizable(8)
	m.count.AddOp(1, -5) // simulate the racing-reader snapshot directly
	if got := m.Len(); got != 0 {
		t.Fatalf("Len = %d with negative sum, want 0", got)
	}
	m.count.AddOp(1, 5)
	if got := m.Len(); got != 0 {
		t.Fatalf("Len = %d after restoring, want 0", got)
	}
	for k := uint64(1); k <= 3; k++ {
		m.Insert(k, k)
	}
	if got := m.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
}

// TestResizableLenNeverNegativeUnderChurn hammers concurrent insert/delete
// pairs while a reader polls Len, asserting it never goes negative and
// lands exactly right once quiescent.
func TestResizableLenNeverNegativeUnderChurn(t *testing.T) {
	const workers = 4
	iters := 40000
	if testing.Short() {
		iters = 10000
	}
	m := NewResizable(4)
	var net atomic.Int64
	done := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if got := m.Len(); got < 0 {
				t.Errorf("Len = %d, want >= 0", got)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.NewXorshift(seed)
			for i := 0; i < iters; i++ {
				key := r.Intn(64) + 1
				if r.Next()%2 == 0 {
					if m.Insert(key, key) {
						net.Add(1)
					}
				} else if _, ok := m.Delete(key); ok {
					net.Add(-1)
				}
			}
		}(uint64(g + 1))
	}
	wg.Wait()
	close(done)
	readerWG.Wait()
	if got, want := m.Len(), int(net.Load()); got != want {
		t.Fatalf("quiescent Len = %d, want %d", got, want)
	}
}
