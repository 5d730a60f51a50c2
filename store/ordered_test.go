package store

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/internal/rng"
)

func TestOrderedBasic(t *testing.T) {
	s := NewOrdered(WithShards(4), WithKeyMax(1<<20))
	defer s.Close()

	if _, ok := s.Get(42); ok {
		t.Fatal("found key in empty store")
	}
	if old, replaced := s.Set(42, 1); replaced || old != 0 {
		t.Fatalf("Set on empty = %d,%v", old, replaced)
	}
	if old, replaced := s.Set(42, 2); !replaced || old != 1 {
		t.Fatalf("Set replace = %d,%v", old, replaced)
	}
	if v, ok := s.Get(42); !ok || v != 2 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	if s.Insert(42, 3) {
		t.Fatal("Insert over present key succeeded")
	}
	if !s.Insert(43, 4) {
		t.Fatal("Insert of fresh key failed")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if v, ok := s.Del(42); !ok || v != 2 {
		t.Fatalf("Del = %d,%v", v, ok)
	}
	if _, ok := s.Del(42); ok {
		t.Fatal("second Del succeeded")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after delete, want 1", s.Len())
	}
}

func TestOrderedRangePartition(t *testing.T) {
	// keyMax 1<<20, 4 shards: the partition must put keys in their slice
	// and Scan must concatenate across slices in order.
	s := NewOrdered(WithShards(4), WithKeyMax(1<<20), WithoutMaintenance())
	want := []uint64{}
	for k := uint64(1); k < 1<<20; k += 1 << 14 {
		s.Set(k, k+1)
		want = append(want, k)
	}
	// A key above the declared ceiling still routes (to the last shard).
	s.Set(1<<21, 7)
	want = append(want, 1<<21)

	keys := make([]uint64, len(want)+8)
	vals := make([]uint64, len(want)+8)
	n := s.Scan(ds.MinKey, ds.MaxKey, keys, vals)
	if n != len(want) {
		t.Fatalf("full scan = %d entries, want %d", n, len(want))
	}
	for i, k := range want {
		if keys[i] != k {
			t.Fatalf("scan[%d] = %d, want %d (cross-shard order broken)", i, keys[i], k)
		}
	}
	if k, _, ok := s.Min(); !ok || k != want[0] {
		t.Fatalf("Min = %d,%v want %d", k, ok, want[0])
	}
	if k, v, ok := s.Max(); !ok || k != 1<<21 || v != 7 {
		t.Fatalf("Max = %d/%d/%v", k, v, ok)
	}
}

func TestOrderedBatchOps(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := NewOrdered(WithShards(shards), WithKeyMax(1<<16), WithoutMaintenance())
			keys := []uint64{100, 5000, 60000, 5000, 1}
			vals := []uint64{1, 2, 3, 4, 5}
			old := make([]uint64, len(keys))
			repl := make([]bool, len(keys))
			if ins := s.MSetEach(keys, vals, old, repl); ins != 4 {
				t.Fatalf("MSetEach inserted %d, want 4", ins)
			}
			if !repl[3] || old[3] != 2 {
				t.Fatalf("duplicate key: repl=%v old=%d (in-order apply broken)", repl[3], old[3])
			}
			got := make([]uint64, len(keys))
			found := make([]bool, len(keys))
			s.MGet(keys, got, found)
			if !found[1] || got[1] != 4 {
				t.Fatalf("MGet[5000] = %d,%v want 4", got[1], found[1])
			}
			if s.Len() != 4 {
				t.Fatalf("Len = %d, want 4", s.Len())
			}
			if ins := s.MSet(keys[:2], []uint64{9, 9}); ins != 0 {
				t.Fatalf("MSet over present keys inserted %d", ins)
			}
			if del := s.MDelEach([]uint64{100, 77, 60000}, old[:3], found[:3]); del != 2 {
				t.Fatalf("MDelEach removed %d, want 2", del)
			}
			if found[1] {
				t.Fatal("absent key reported found")
			}
			if del := s.MDel([]uint64{5000, 1, 5000}); del != 2 {
				t.Fatalf("MDel removed %d, want 2", del)
			}
			if s.Len() != 0 {
				t.Fatalf("Len = %d after deleting everything", s.Len())
			}
		})
	}
}

// refSorted is the mutex-guarded sorted reference the property test runs
// the ordered store against.
type refSorted struct {
	mu sync.Mutex
	m  map[uint64]uint64
}

func (r *refSorted) set(k, v uint64) (uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old, ok := r.m[k]
	r.m[k] = v
	return old, ok
}

func (r *refSorted) del(k uint64) (uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old, ok := r.m[k]
	delete(r.m, k)
	return old, ok
}

func (r *refSorted) scan(from, to uint64, limit int) ([]uint64, []uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := []uint64{}
	for k := range r.m {
		if k >= from && k <= to {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if len(keys) > limit {
		keys = keys[:limit]
	}
	vals := make([]uint64, len(keys))
	for i, k := range keys {
		vals[i] = r.m[k]
	}
	return keys, vals
}

// TestOrderedVsReference drives an interleaved single-goroutine op tape
// through the ordered store and the reference: every point result and
// every scan page must be identical (here there is no concurrency, so
// "identical" is exact — the concurrent variants below check invariants
// instead).
func TestOrderedVsReference(t *testing.T) {
	s := NewOrdered(WithShards(8), WithKeyMax(1<<16), WithoutMaintenance())
	ref := &refSorted{m: map[uint64]uint64{}}
	r := rng.NewXorshift(0xfeed)
	const keyRange = 4096
	page := make([]uint64, 64)
	pageV := make([]uint64, 64)
	for op := 0; op < 30000; op++ {
		k := r.Intn(keyRange) + 1
		switch r.Intn(10) {
		case 0, 1, 2, 3:
			v := r.Next()
			gotOld, gotRepl := s.Set(k, v)
			wantOld, wantRepl := ref.set(k, v)
			if gotRepl != wantRepl || (gotRepl && gotOld != wantOld) {
				t.Fatalf("op %d: Set(%d) = %d,%v want %d,%v", op, k, gotOld, gotRepl, wantOld, wantRepl)
			}
		case 4, 5:
			gotOld, gotOk := s.Del(k)
			wantOld, wantOk := ref.del(k)
			if gotOk != wantOk || (gotOk && gotOld != wantOld) {
				t.Fatalf("op %d: Del(%d) = %d,%v want %d,%v", op, k, gotOld, gotOk, wantOld, wantOk)
			}
		default:
			from := r.Intn(keyRange) + 1
			to := from + r.Intn(512)
			n := s.Scan(from, to, page, pageV)
			wantK, wantV := ref.scan(from, to, len(page))
			if n != len(wantK) {
				t.Fatalf("op %d: Scan(%d,%d) = %d entries, want %d", op, from, to, n, len(wantK))
			}
			for i := range wantK {
				if page[i] != wantK[i] || pageV[i] != wantV[i] {
					t.Fatalf("op %d: scan entry %d = %d/%d, want %d/%d",
						op, i, page[i], pageV[i], wantK[i], wantV[i])
				}
			}
		}
	}
	if s.Len() != len(ref.m) {
		t.Fatalf("final Len = %d, reference holds %d", s.Len(), len(ref.m))
	}
}

// TestOrderedScanCursorInvariant is the iterator invariant of the issue:
// paging through the key space by resumption key (from = last+1) while
// writers churn must neither skip nor repeat any key that stays present
// for the whole scan, and every page must be strictly ascending. Stable
// keys are pinned by using a disjoint key range writers never touch.
func TestOrderedScanCursorInvariant(t *testing.T) {
	s := NewOrdered(WithShards(8), WithKeyMax(1<<20))
	defer s.Close()

	// Stable keys: every multiple of 64 in [64, 1<<19]. Churn keys are
	// everything else.
	stable := map[uint64]bool{}
	for k := uint64(64); k <= 1<<19; k += 64 {
		s.Set(k, k)
		stable[k] = true
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.NewXorshift(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := r.Intn(1<<19) + 1
				if k%64 == 0 {
					k++ // never touch a stable key
				}
				if r.Intn(2) == 0 {
					s.Set(k, k)
				} else {
					s.Del(k)
				}
			}
		}(uint64(w + 99))
	}

	deadline := time.Now().Add(300 * time.Millisecond)
	page := make([]uint64, 128)
	pageV := make([]uint64, 128)
	for pass := 0; time.Now().Before(deadline); pass++ {
		seen := map[uint64]int{}
		from := uint64(ds.MinKey)
		for {
			n := s.Scan(from, 1<<19, page, pageV)
			if n == 0 {
				break
			}
			last := uint64(0)
			for i := 0; i < n; i++ {
				if page[i] <= last && i > 0 {
					t.Fatalf("pass %d: page not strictly ascending at %d", pass, page[i])
				}
				if i == 0 && page[i] < from {
					t.Fatalf("pass %d: page starts at %d before cursor %d", pass, page[i], from)
				}
				last = page[i]
				if stable[page[i]] {
					seen[page[i]]++
				}
			}
			if page[n-1] >= 1<<19 {
				break
			}
			from = page[n-1] + 1 // resumption key, not a position
		}
		for k := range stable {
			if c := seen[k]; c != 1 {
				t.Fatalf("pass %d: stable key %d seen %d times across cursor pages", pass, k, c)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestOrderedReclaimWithoutQuiesce is the recycling acceptance bar at the
// store layer: under churn with NO caller-side Quiesce, the maintenance
// scheduler's idle sweeps alone must drain retired towers back into
// reuse.
func TestOrderedReclaimWithoutQuiesce(t *testing.T) {
	s := NewOrdered(WithShards(2), WithKeyMax(1<<16),
		WithMaintenanceInterval(time.Millisecond))
	defer s.Close()

	for i := 0; i < 4000; i++ {
		k := uint64(1 + i%64)
		s.Set(k, k)
		s.Del(k)
	}
	// Handle-borrow sweeps may already have recycled; the scheduler must
	// finish the job while the store idles.
	deadline := time.Now().Add(30 * time.Second)
	for {
		retired, reclaimed, _ := s.ReclaimStats()
		if retired > 0 && reclaimed == retired {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scheduler never drained: retired %d, reclaimed %d", retired, reclaimed)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// And churn after the drain proves reuse.
	for i := 0; i < 2000; i++ {
		k := uint64(1 + i%64)
		s.Set(k, k)
		s.Del(k)
	}
	if _, _, reused := s.ReclaimStats(); reused == 0 {
		t.Fatal("no towers reused after scheduler drain")
	}
}

func TestSortedStrings(t *testing.T) {
	s := NewSortedStrings(WithShards(4), WithKeyMax(1<<16))
	defer s.Close()

	if replaced := s.Set(100, "a"); replaced {
		t.Fatal("fresh Set reported replace")
	}
	if !s.Set(100, "b") {
		t.Fatal("second Set did not report replace")
	}
	if v, ok := s.Get(100); !ok || v != "b" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	s.Set(50, "x")
	s.Set(200, "y")

	keys := make([]uint64, 8)
	vals := make([]string, 8)
	if n := s.Scan(1, 1000, keys, vals); n != 3 || keys[0] != 50 || vals[1] != "b" || keys[2] != 200 {
		t.Fatalf("Scan = %d %v %v", n, keys[:n], vals[:n])
	}
	if k, v, ok := s.Min(); !ok || k != 50 || v != "x" {
		t.Fatalf("Min = %d/%q/%v", k, v, ok)
	}
	if k, v, ok := s.Max(); !ok || k != 200 || v != "y" {
		t.Fatalf("Max = %d/%q/%v", k, v, ok)
	}
	if !s.Del(100) || s.Del(100) {
		t.Fatal("Del semantics broken")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}

	// Batched surface.
	mk := []uint64{10, 20, 10}
	repl := make([]bool, 3)
	if ins := s.MSet(mk, []string{"p", "q", "r"}, repl); ins != 2 {
		t.Fatalf("MSet inserted %d, want 2", ins)
	}
	if !repl[2] {
		t.Fatal("duplicate key in MSet did not replace")
	}
	got := make([]string, 3)
	found := make([]bool, 3)
	s.MGet(mk, got, found)
	if got[0] != "r" || got[1] != "q" {
		t.Fatalf("MGet = %v", got)
	}
	if del := s.MDel([]uint64{10, 11, 20}, found); del != 2 {
		t.Fatalf("MDel removed %d, want 2", del)
	}
}

// TestSortedStringsConcurrent exercises the slot-recycling validate path
// under churn (meaningful mostly with -race).
func TestSortedStringsConcurrent(t *testing.T) {
	s := NewSortedStrings(WithShards(4), WithKeyMax(4096))
	defer s.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.NewXorshift(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := r.Intn(512) + 1
				switch r.Intn(4) {
				case 0:
					s.Del(k)
				case 1:
					if v, ok := s.Get(k); ok && v == "" {
						panic("empty value for present key")
					}
				default:
					s.Set(k, "v")
				}
			}
		}(uint64(w + 7))
	}
	keys := make([]uint64, 64)
	vals := make([]string, 64)
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		n := s.Scan(1, 512, keys, vals)
		for i := 0; i < n; i++ {
			if vals[i] != "v" {
				t.Fatalf("scan returned corrupt value %q for key %d", vals[i], keys[i])
			}
			if i > 0 && keys[i] <= keys[i-1] {
				t.Fatalf("scan page out of order at %d", keys[i])
			}
		}
		s.Min()
		s.Max()
	}
	close(stop)
	wg.Wait()
}

// TestSortedStringsScanShortPageMeansExhausted pins the refill contract
// paging callers depend on: a Scan page shorter than the buffer means the
// range is exhausted, even when entries vanish under the scan. The pager
// below interprets a short page exactly as the server's SCAN does — stop —
// so a churn-shrunk page would skip every stable key behind it and fail
// the seen-exactly-once check.
func TestSortedStringsScanShortPageMeansExhausted(t *testing.T) {
	s := NewSortedStrings(WithShards(4), WithKeyMax(1<<16))
	defer s.Close()

	stable := map[uint64]bool{}
	for k := uint64(8); k <= 1<<14; k += 8 {
		s.Set(k, "stable")
		stable[k] = true
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.NewXorshift(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := r.Intn(1<<14) + 1
				if k%8 == 0 {
					k++ // never touch a stable key
				}
				if r.Intn(2) == 0 {
					s.Set(k, "churn")
				} else {
					s.Del(k)
				}
			}
		}(uint64(w + 31))
	}

	page := make([]uint64, 64)
	pageV := make([]string, 64)
	deadline := time.Now().Add(300 * time.Millisecond)
	for pass := 0; time.Now().Before(deadline); pass++ {
		seen := map[uint64]int{}
		from := uint64(ds.MinKey)
		for {
			n := s.Scan(from, 1<<14, page, pageV)
			for i := 0; i < n; i++ {
				if stable[page[i]] {
					seen[page[i]]++
				}
			}
			if n < len(page) {
				break // short page = range exhausted, the contract under test
			}
			if page[n-1] >= 1<<14 {
				break
			}
			from = page[n-1] + 1
		}
		for k := range stable {
			if c := seen[k]; c != 1 {
				t.Fatalf("pass %d: stable key %d seen %d times across short-page cursor", pass, k, c)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestSortedStringsExpiredAreAbsent pins the ordered family's view of TTL
// under the injected clock: Scan, Min and Max treat an expired pair as
// absent — retiring it on the way past — and Scan keeps filling its page
// behind the holes, so a short page still means the range is exhausted.
func TestSortedStringsExpiredAreAbsent(t *testing.T) {
	clk := newTestClock(1_000_000_000)
	s := NewSortedStrings(WithClock(clk.fn()), WithShards(4), WithKeyMax(1<<10), WithoutMaintenance())
	// Keys 1..200: every third one mortal, plus both extremes.
	mortal := func(k uint64) bool { return k%3 == 0 || k == 1 || k == 200 }
	live := 0
	for k := uint64(1); k <= 200; k++ {
		if mortal(k) {
			s.SetEXHashed(k, "mortal", 5)
		} else {
			s.Set(k, "stable")
			live++
		}
	}
	keys, vals := make([]uint64, 16), make([]string, 16)

	// Before the deadline everything is served.
	if k, _, ok := s.Min(); !ok || k != 1 {
		t.Fatalf("Min before expiry = %d,%v, want 1", k, ok)
	}
	if k, _, ok := s.Max(); !ok || k != 200 {
		t.Fatalf("Max before expiry = %d,%v, want 200", k, ok)
	}
	if n := s.Scan(1, 200, keys, vals); n != len(keys) || keys[0] != 1 || keys[2] != 3 {
		t.Fatalf("Scan before expiry = %d entries starting %v", n, keys[:3])
	}

	clk.advance(6 * nsPerSec)
	if k, v, ok := s.Min(); !ok || k != 2 || v != "stable" {
		t.Fatalf("Min after expiry = %d,%q,%v, want 2", k, v, ok)
	}
	if k, v, ok := s.Max(); !ok || k != 199 || v != "stable" {
		t.Fatalf("Max after expiry = %d,%q,%v, want 199", k, v, ok)
	}
	// Page through with the server's cursor rule: every page but the last
	// is full although a third of the index entries under it were dead.
	seen, from := 0, uint64(1)
	for {
		n := s.Scan(from, 200, keys, vals)
		for i := 0; i < n; i++ {
			if mortal(keys[i]) || vals[i] != "stable" || (i > 0 && keys[i] <= keys[i-1]) {
				t.Fatalf("Scan served %d=%q at position %d of %v", keys[i], vals[i], i, keys[:n])
			}
		}
		seen += n
		if n < len(keys) {
			break
		}
		from = keys[n-1] + 1
	}
	if seen != live {
		t.Fatalf("paged Scan saw %d live keys, want %d", seen, live)
	}
	// The readers retired what they stepped over: the index holds only
	// the live keys, and the dead pairs' bytes were credited back.
	if got := s.Len(); got != live {
		t.Fatalf("Len = %d after the scans, want %d", got, live)
	}
	if lazy, _, _ := s.TTLStats(); lazy != uint64(200-live) {
		t.Fatalf("expired_lazy = %d, want %d", lazy, 200-live)
	}
	if got, want := s.BytesUsed(), int64(live*(len("stable")+PairOverhead)); got != want {
		t.Fatalf("BytesUsed = %d, want %d", got, want)
	}

	// A store whose every entry is dead reads as empty from both ends.
	clk.advance(1)
	s.SetEXHashed(500, "last", 1)
	for k := uint64(1); k <= 200; k++ {
		s.Del(k)
	}
	clk.advance(2 * nsPerSec)
	if _, _, ok := s.Min(); ok {
		t.Fatal("Min served an expired sole entry")
	}
	if _, _, ok := s.Max(); ok {
		t.Fatal("Max on an all-expired store")
	}
	if n := s.Scan(1, 1<<10, keys, vals); n != 0 {
		t.Fatalf("Scan of an all-expired store = %d", n)
	}
}

// TestShardSweepLapUnderChurn pins the sweep's lap promise on both shard
// kinds while writers insert and delete other keys around it — growing the
// hash shard under the cursor: every key present for the whole lap is
// returned at least once, and by the sorted shard, whose cursor is a key,
// exactly once. Each cursor step waits for the writers to make progress,
// so the lap and the churn interleave on any number of cores.
func TestShardSweepLapUnderChurn(t *testing.T) {
	const stable = 1000
	for _, kind := range []struct {
		name  string
		new   func(options) *Store[uint64]
		exact bool
	}{
		{"hash", newHashed[uint64], false},
		{"sorted", func(o options) *Store[uint64] { return &newOrdered[uint64](o).Store }, true},
	} {
		t.Run(kind.name, func(t *testing.T) {
			st := kind.new(newOptions([]Option{WithShards(1), WithShardBuckets(8), WithoutMaintenance()}))
			sh := st.shards[0]
			for k := uint64(1); k <= stable; k++ {
				sh.Insert(2*k, k) // stable keys are even, churn keys odd
			}
			resizes := st.Resizes()
			var ops atomic.Int64
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					r := rng.NewXorshift(seed)
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						// Insert-heavy until the table has doubled twice,
						// balanced after, so the lap sees growth and churn.
						k := 2*r.Intn(4*stable) + 1
						if i%4 < 3 || sh.Len() > 4*stable {
							sh.Delete(k)
						}
						if i%4 < 3 {
							sh.Insert(k, k)
						}
						ops.Add(1)
					}
				}(uint64(w + 1))
			}
			seen := map[uint64]int{}
			keys, vals := make([]uint64, 16), make([]uint64, 16)
			for cursor, laps := uint64(0), 0; laps == 0; {
				for target := ops.Load() + 8; ops.Load() < target; {
					runtime.Gosched()
				}
				n, next := sh.Sweep(cursor, keys, vals)
				for i := 0; i < n; i++ {
					if keys[i]%2 == 0 {
						seen[keys[i]]++
					}
				}
				if cursor = next; cursor == 0 {
					laps++
				}
			}
			close(stop)
			wg.Wait()
			for k := uint64(1); k <= stable; k++ {
				if c := seen[2*k]; c == 0 || (kind.exact && c != 1) {
					t.Fatalf("stable key %d returned %d times by one lap", 2*k, c)
				}
			}
			if kind.name == "hash" && st.Resizes() == resizes {
				t.Fatal("the table never resized under the lap")
			}
		})
	}
}

// TestOrderedSampleBias measures the sorted shard's eviction sample, the
// successor of a key drawn from the shard's key range, on a key set with
// one large gap — 500 dense keys, then 500 more a trillion keys on — and
// on the clustered hashes of short similar strings the eviction tests use,
// and pins the bias it documents: an entry is drawn as often as the gap
// below it is wide, and the gap moves to the next entry when the one
// before it goes. docs/ARCHITECTURE.md quotes the logged numbers.
func TestOrderedSampleBias(t *testing.T) {
	const draws = 100
	gapped := make([]uint64, 0, 1000)
	for k := uint64(1); k <= 500; k++ {
		gapped = append(gapped, k, 1e12+k)
	}
	hashed := make([]uint64, 0, 1000)
	for i := 0; i < 1000; i++ {
		hashed = append(hashed, HashKey(fmt.Sprintf("k%d", i)))
	}
	for _, set := range []struct {
		name string
		keys []uint64
	}{{"gapped", gapped}, {"hashed", hashed}} {
		sh := newOrderedShard[uint64]().(*orderedShard[uint64])
		for _, k := range set.keys {
			sh.Insert(k, k)
		}
		count := map[uint64]int{}
		r := rng.NewXorshift(11)
		for got := 0; got < draws*len(set.keys); {
			if k, _, n := sh.Sample(r.Next()); n == 1 {
				count[k[0]]++
				got++
			}
		}
		most := 0
		for _, c := range count {
			most = max(most, c)
		}
		t.Logf("%s keys: %d of %d keys never drawn in %d draws each on average; the most drawn %.1f× its share",
			set.name, len(set.keys)-len(count), len(set.keys), draws, float64(most)/draws)
		if set.name != "gapped" {
			continue
		}
		if share := float64(count[1e12+1]) / (draws * 1000); share < 0.99 {
			t.Errorf("the key after the gap drew %.3f of the draws; want nearly all", share)
		}
		// Its successor inherits the gap once it is gone.
		sh.Delete(1e12 + 1)
		next := 0
		for i := 0; i < 1000; i++ {
			if k, _, n := sh.Sample(r.Next()); n == 1 && k[0] == 1e12+2 {
				next++
			}
		}
		if next < 990 {
			t.Errorf("after the key past the gap went, its successor drew %d of 1000, want nearly all", next)
		}
	}
}
