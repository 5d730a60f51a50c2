package core

import (
	"sync"
	"testing"
	"unsafe"
)

func TestPaddedSizes(t *testing.T) {
	if got := unsafe.Sizeof(PaddedLock{}); got != CacheLineSize {
		t.Fatalf("PaddedLock size = %d, want %d", got, CacheLineSize)
	}
	if got := unsafe.Sizeof(PaddedTicketLock{}); got != CacheLineSize {
		t.Fatalf("PaddedTicketLock size = %d, want %d", got, CacheLineSize)
	}
	if got := unsafe.Sizeof(stripedCell{}); got < CacheLineSize {
		t.Fatalf("stripedCell size = %d, want >= %d", got, CacheLineSize)
	}
}

func TestPaddedLockBehaves(t *testing.T) {
	// The embedded lock must work exactly like a bare one.
	var locksArr [4]PaddedLock
	l := &locksArr[2]
	v := l.GetVersion()
	if !l.TryLockVersion(v) {
		t.Fatal("TryLockVersion on fresh padded lock failed")
	}
	l.Unlock()
	if l.GetVersion().Same(v) {
		t.Fatal("version did not advance across a critical section")
	}
}

func TestStripedSumQuiescentExact(t *testing.T) {
	s := NewStriped(8)
	if s.Cells() != 8 {
		t.Fatalf("Cells = %d, want 8", s.Cells())
	}
	const workers, iters = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s.Add(id*7919+uint64(i), 1)
				if i%2 == 0 {
					s.Add(uint64(i), -1)
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	want := int64(workers * (iters - iters/2))
	if got := s.Sum(); got != want {
		t.Fatalf("Sum = %d, want %d", got, want)
	}
}

func TestStripedShardRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{1, 1}, {3, 4}, {8, 8}, {9, 16}} {
		if got := NewStriped(tc.in).Cells(); got != tc.want {
			t.Fatalf("NewStriped(%d).Cells() = %d, want %d", tc.in, got, tc.want)
		}
	}
	if NewStriped(0).Cells() < 1 {
		t.Fatal("machine-sized counter has no cells")
	}
}

func TestStripedAddReturnsCellValue(t *testing.T) {
	s := NewStriped(1) // single cell: Add returns the running total
	for i := int64(1); i <= 5; i++ {
		if got := s.Add(uint64(i*13), 1); got != i {
			t.Fatalf("Add #%d returned %d", i, got)
		}
	}
}

func TestStripedOpsPackedCounters(t *testing.T) {
	s := NewStriped(8)
	const workers, iters = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s.AddOp(id*7919+uint64(i), 1)
				if i%2 == 0 {
					s.AddOp(uint64(i), -1)
				}
				if i%4 == 0 {
					s.AddOp(uint64(i)*31, 0) // value update: op, no net change
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	wantNet := int64(workers * (iters - iters/2))
	wantOps := int64(workers * (iters + iters/2 + iters/4))
	if got := s.Net(); got != wantNet {
		t.Fatalf("Net = %d, want %d", got, wantNet)
	}
	if got := s.Ops(); got != wantOps {
		t.Fatalf("Ops = %d, want %d", got, wantOps)
	}
}

func TestStripedOpsBalancedTrafficAdvances(t *testing.T) {
	// The blind spot the packed counter exists to close: perfectly balanced
	// traffic leaves the net sum unchanged but must advance the op count.
	s := NewStriped(4)
	before := s.Ops()
	for i := 0; i < 1000; i++ {
		s.AddOp(uint64(i), 1)
		s.AddOp(uint64(i), -1)
	}
	if got := s.Net(); got != 0 {
		t.Fatalf("Net = %d after balanced traffic, want 0", got)
	}
	if got := s.Ops(); got != before+2000 {
		t.Fatalf("Ops = %d, want %d", got, before+2000)
	}
}

func TestStripedOpsNegativeNetTransient(t *testing.T) {
	// A delete observed before its matching insert drives the net negative;
	// the borrow into the op half must not corrupt either counter once the
	// insert lands.
	s := NewStriped(1)
	s.AddOp(1, -1)
	if got := s.Net(); got != -1 {
		t.Fatalf("Net = %d mid-transient, want -1", got)
	}
	if got := s.Ops(); got != 1 {
		t.Fatalf("Ops = %d mid-transient, want 1", got)
	}
	s.AddOp(2, 1)
	if got := s.Net(); got != 0 {
		t.Fatalf("Net = %d settled, want 0", got)
	}
	if got := s.Ops(); got != 2 {
		t.Fatalf("Ops = %d settled, want 2", got)
	}
}

func TestStripedOpsReturnIsCellOpCount(t *testing.T) {
	s := NewStriped(1) // single cell: AddOp returns the running op count
	deltas := []int64{1, -1, 0, 1, -1}
	for i, d := range deltas {
		if got := s.AddOp(uint64(i*13), d); got != int64(i+1) {
			t.Fatalf("AddOp #%d returned %d, want %d", i, got, i+1)
		}
	}
}
