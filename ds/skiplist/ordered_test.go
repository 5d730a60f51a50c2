package skiplist

import (
	"sync"
	"testing"
	"time"

	"github.com/optik-go/optik/internal/qsbr"
	"github.com/optik-go/optik/internal/rng"
)

func TestOptikUpsert(t *testing.T) {
	s := NewOptik2()
	if old, replaced := s.Upsert(5, 50); replaced || old != 0 {
		t.Fatalf("Upsert on absent key = %d,%v", old, replaced)
	}
	if v, ok := s.Search(5); !ok || v != 50 {
		t.Fatalf("Search(5) = %d,%v", v, ok)
	}
	if old, replaced := s.Upsert(5, 55); !replaced || old != 50 {
		t.Fatalf("Upsert on present key = %d,%v", old, replaced)
	}
	if v, ok := s.Search(5); !ok || v != 55 {
		t.Fatalf("Search(5) after replace = %d,%v", v, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after two upserts of one key", s.Len())
	}
	if v, ok := s.Delete(5); !ok || v != 55 {
		t.Fatalf("Delete(5) = %d,%v", v, ok)
	}
}

func TestOptikScanRange(t *testing.T) {
	s := NewOptik2()
	for k := uint64(10); k <= 100; k += 10 {
		s.Insert(k, k*2)
	}
	keys := make([]uint64, 16)
	vals := make([]uint64, 16)

	n := s.ScanRange(25, 75, keys, vals)
	want := []uint64{30, 40, 50, 60, 70}
	if n != len(want) {
		t.Fatalf("ScanRange(25,75) = %d entries, want %d", n, len(want))
	}
	for i, k := range want {
		if keys[i] != k || vals[i] != k*2 {
			t.Fatalf("entry %d = %d/%d, want %d/%d", i, keys[i], vals[i], k, k*2)
		}
	}

	// Inclusive bounds.
	if n := s.ScanRange(10, 100, keys, vals); n != 10 {
		t.Fatalf("inclusive full scan = %d, want 10", n)
	}
	// Page cap.
	if n := s.ScanRange(10, 100, keys[:3], vals[:3]); n != 3 || keys[2] != 30 {
		t.Fatalf("capped scan = %d (keys[2]=%d), want 3 ending at 30", n, keys[2])
	}
	// Empty window and inverted range.
	if n := s.ScanRange(41, 49, keys, vals); n != 0 {
		t.Fatalf("empty window scan = %d", n)
	}
	if n := s.ScanRange(70, 30, keys, vals); n != 0 {
		t.Fatalf("inverted range scan = %d", n)
	}
	// Deleted keys disappear from scans.
	s.Delete(50)
	if n := s.ScanRange(25, 75, keys, vals); n != 4 {
		t.Fatalf("scan after delete = %d, want 4", n)
	}
}

func TestOptikMinMax(t *testing.T) {
	s := NewOptik2()
	if _, _, ok := s.Min(); ok {
		t.Fatal("Min on empty list")
	}
	if _, _, ok := s.Max(); ok {
		t.Fatal("Max on empty list")
	}
	for _, k := range []uint64{40, 10, 90, 60} {
		s.Insert(k, k+1)
	}
	if k, v, ok := s.Min(); !ok || k != 10 || v != 11 {
		t.Fatalf("Min = %d/%d/%v", k, v, ok)
	}
	if k, v, ok := s.Max(); !ok || k != 90 || v != 91 {
		t.Fatalf("Max = %d/%d/%v", k, v, ok)
	}
	s.Delete(10)
	s.Delete(90)
	if k, _, ok := s.Min(); !ok || k != 40 {
		t.Fatalf("Min after deletes = %d/%v", k, ok)
	}
	if k, _, ok := s.Max(); !ok || k != 60 {
		t.Fatalf("Max after deletes = %d/%v", k, ok)
	}
}

func TestOptikBatchOps(t *testing.T) {
	s := NewOptik2()
	keys := []uint64{3, 1, 4, 1, 5}
	vals := []uint64{30, 10, 40, 11, 50}
	old := make([]uint64, len(keys))
	replaced := make([]bool, len(keys))

	if ins := s.UpsertBatchEach(keys, vals, old, replaced); ins != 4 {
		t.Fatalf("UpsertBatchEach inserted %d, want 4", ins)
	}
	if !replaced[3] || old[3] != 10 {
		t.Fatalf("duplicate key in batch: replaced=%v old=%d", replaced[3], old[3])
	}

	got := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	s.SearchBatch(keys, got, found)
	for i := range keys {
		if !found[i] {
			t.Fatalf("key %d not found after batch upsert", keys[i])
		}
	}
	if got[1] != 11 {
		t.Fatalf("key 1 = %d, want the later batch value 11", got[1])
	}

	if rem := s.DeleteBatchEach([]uint64{1, 2, 3}, old[:3], found[:3]); rem != 2 {
		t.Fatalf("DeleteBatchEach removed %d, want 2", rem)
	}
	if found[1] {
		t.Fatal("absent key 2 reported found by batch delete")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d after batch delete, want 2", s.Len())
	}
}

// TestOptikPoolRecycles is the ordered-index half of the recycling
// acceptance bar: with a pool-backed list, deleted towers must come back
// out of Alloc after quiescent passes — ReclaimStats showing reuse — with
// the callers never invoking a quiesce themselves (here the test drives
// the epoch via a scheduler-shaped sweep: release/re-acquire cycles).
func TestOptikPoolRecycles(t *testing.T) {
	d := qsbr.NewDomain()
	p := qsbr.NewPool(d, 8)
	s := NewOptikPool[uint64](p)
	if s.Pool() != p {
		t.Fatal("Pool accessor broken")
	}

	// Churn one key: every delete retires a tower, and because each op
	// borrows and releases a pool slot (which runs a quiescent sweep on
	// release), retired towers become allocatable for later inserts.
	for i := 0; i < 2000; i++ {
		k := uint64(1 + i%16)
		s.Insert(k, k)
		s.Delete(k)
	}
	retired, reclaimed, reused := s.ReclaimStats()
	if retired == 0 {
		t.Fatal("no towers retired under churn")
	}
	if reclaimed == 0 {
		t.Fatal("no towers reclaimed: epoch never advanced")
	}
	if reused == 0 {
		t.Fatalf("no towers reused (retired %d, reclaimed %d)", retired, reclaimed)
	}
}

// TestOptikPoolConcurrent hammers a pool-backed list from writers and
// scanners at once: recycled towers must never corrupt the order or leak
// marked nodes into scan pages. Run under -race this also exercises the
// epoch protection story (pinned traversals vs recycling resets).
func TestOptikPoolConcurrent(t *testing.T) {
	d := qsbr.NewDomain()
	p := qsbr.NewPool(d, 64)
	s := NewOptikPool[uint64](p)
	const keyRange = 512
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
				k := r.Intn(keyRange) + 1
				switch r.Intn(3) {
				case 0:
					s.Insert(k, k)
				case 1:
					s.Upsert(k, k+1)
				default:
					s.Delete(k)
				}
			}
		}(uint64(w + 1))
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys := make([]uint64, 64)
			vals := make([]uint64, 64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := s.ScanRange(1, keyRange, keys, vals)
				for i := 1; i < n; i++ {
					if keys[i] <= keys[i-1] {
						panic("scan page out of order")
					}
				}
				s.Min()
				s.Max()
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	// The list must still be coherent after the churn.
	keys := make([]uint64, keyRange+1)
	vals := make([]uint64, keyRange+1)
	n := s.ScanRange(1, keyRange, keys, vals)
	if n != s.Len() {
		t.Fatalf("scan sees %d entries, Len reports %d", n, s.Len())
	}
	for i := 0; i < n; i++ {
		if v, ok := s.Search(keys[i]); !ok || (v != keys[i] && v != keys[i]+1) {
			t.Fatalf("scanned key %d: Search = %d,%v", keys[i], v, ok)
		}
	}
}
