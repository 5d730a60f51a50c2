package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestTicketBasics(t *testing.T) {
	var l TicketLock
	v := l.GetVersion()
	if v.IsLocked() {
		t.Fatal("zero lock must be unlocked")
	}
	if !l.TryLockVersion(v) {
		t.Fatal("TryLockVersion on quiescent lock failed")
	}
	if !l.IsLockedNow() {
		t.Fatal("lock not held after TryLockVersion")
	}
	if q := l.NumQueued(); q != 1 {
		t.Fatalf("NumQueued = %d, want 1 while held", q)
	}
	l.Unlock()
	if l.IsLockedNow() {
		t.Fatal("lock held after Unlock")
	}
	v2 := l.GetVersion()
	if v2.Same(v) {
		t.Fatal("version must advance across a critical section")
	}
	if v2.current() != v.current()+1 {
		t.Fatalf("serving half = %d, want %d", v2.current(), v.current()+1)
	}
}

func TestTicketTryLockStale(t *testing.T) {
	var l TicketLock
	v := l.GetVersion()
	l.TryLockVersion(v)
	l.Unlock()
	if l.TryLockVersion(v) {
		t.Fatal("stale version must not acquire")
	}
}

func TestTicketTryLockLockedTarget(t *testing.T) {
	var l TicketLock
	v := l.GetVersion()
	l.TryLockVersion(v)
	locked := l.GetVersion()
	if !locked.IsLocked() {
		t.Fatal("expected locked snapshot")
	}
	if l.TryLockVersion(locked) {
		t.Fatal("locked target must fail")
	}
	l.Unlock()
}

func TestTicketRevert(t *testing.T) {
	var l TicketLock
	v := l.GetVersion()
	l.TryLockVersion(v)
	l.Revert()
	if l.GetVersion() != v {
		t.Fatal("Revert must restore the exact word")
	}
	if !l.TryLockVersion(v) {
		t.Fatal("original snapshot must validate after Revert")
	}
	l.Unlock()
}

func TestTicketLockVersion(t *testing.T) {
	var l TicketLock
	v := l.GetVersion()
	if !l.LockVersion(v) {
		t.Fatal("LockVersion on quiescent lock must validate")
	}
	l.Unlock()
	if l.LockVersion(v) {
		t.Fatal("stale LockVersion must return false")
	}
	if !l.IsLockedNow() {
		t.Fatal("LockVersion must hold the lock even on validation failure")
	}
	l.Unlock()
}

func TestTicketLockVersionBackoff(t *testing.T) {
	var l TicketLock
	v := l.GetVersion()
	if !l.LockVersionBackoff(v) {
		t.Fatal("LockVersionBackoff on quiescent lock must validate")
	}
	l.Unlock()
	if l.LockVersionBackoff(l.GetVersion()) != true {
		t.Fatal("fresh snapshot must validate")
	}
	l.Unlock()
}

func TestTicketNumQueued(t *testing.T) {
	var l TicketLock
	if l.NumQueued() != 0 {
		t.Fatal("free lock must have 0 queued")
	}
	l.Lock()
	if l.NumQueued() != 1 {
		t.Fatalf("NumQueued = %d, want 1", l.NumQueued())
	}
	// Two waiters draw tickets.
	l.word.Add(1 << ticketShift)
	l.word.Add(1 << ticketShift)
	if l.NumQueued() != 3 {
		t.Fatalf("NumQueued = %d, want 3", l.NumQueued())
	}
	l.word.Add(3) // serve everyone (low half increments)
	if l.NumQueued() != 0 {
		t.Fatalf("NumQueued = %d, want 0", l.NumQueued())
	}
}

func TestTicketServingWraparound(t *testing.T) {
	// The §3.2 overflow property: the ticket version is 32 bits. Set the
	// lock just before the 32-bit boundary and verify lock/unlock wraps the
	// serving half without corrupting the ticket half.
	var l TicketLock
	l.word.Store(uint64(0xffffffff)<<ticketShift | uint64(0xffffffff))
	v := l.GetVersion()
	if v.IsLocked() {
		t.Fatal("crafted word should be unlocked (halves equal)")
	}
	if !l.TryLockVersion(v) {
		t.Fatal("TryLockVersion at boundary failed")
	}
	l.Unlock()
	after := l.GetVersion()
	if after.IsLocked() {
		t.Fatalf("lock corrupt after wraparound: %#x", uint64(after))
	}
	if after.current() != 0 || after.next() != 0 {
		t.Fatalf("expected both halves to wrap to 0, got next=%#x cur=%#x",
			after.next(), after.current())
	}
}

func TestTicketABAOverflow(t *testing.T) {
	// Demonstrates the documented weakness: after exactly 2^32 critical
	// sections the 32-bit version returns to its old value, so a sleeper's
	// stale snapshot validates again (we simulate the 2^32 sections by
	// setting the word directly).
	var l TicketLock
	stale := l.GetVersion() // version 0, unlocked
	// 2^32 completed critical sections later the halves wrapped to 0 again:
	l.word.Store(0)
	if !l.TryLockVersion(stale) {
		t.Fatal("expected the ABA snapshot to (incorrectly) validate — " +
			"this documents the 32-bit overflow limitation")
	}
	l.Unlock()
}

func TestTicketFIFOGrantOrder(t *testing.T) {
	var l TicketLock
	const n = 8
	l.Lock()
	served := make([]int, 0, n)
	var wg sync.WaitGroup
	var gate sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		gate.Lock()
		go func(me int) {
			defer wg.Done()
			my := l.drawTicket()
			gate.Unlock()
			for uint32(l.word.Load()) != my {
			}
			served = append(served, me) // we hold the lock
			l.Unlock()
		}(i)
		gate.Lock()
		gate.Unlock()
	}
	l.Unlock()
	wg.Wait()
	for i, v := range served {
		if v != i {
			t.Fatalf("grant order %v not FIFO", served)
		}
	}
}

func TestTicketMutualExclusion(t *testing.T) {
	var l TicketLock
	const goroutines, iters = 8, 2000
	var counter int
	var inside atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for {
					v := l.GetVersionWait()
					if l.TryLockVersion(v) {
						break
					}
				}
				if inside.Add(1) != 1 {
					t.Error("two holders of the ticket OPTIK lock")
				}
				counter++
				inside.Add(-1)
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*iters {
		t.Fatalf("counter = %d, want %d", counter, goroutines*iters)
	}
	if cur := l.GetVersion().current(); cur != uint32(goroutines*iters) {
		t.Fatalf("version = %d, want %d", cur, goroutines*iters)
	}
}

func TestTicketConcurrentUnlockVsTicketDraw(t *testing.T) {
	// Stress the CAS-loop Unlock against concurrent ticket draws: counts
	// must stay consistent (every draw eventually served). A ticket lock
	// hands the lock to one waiter in turn, so a waiter descheduled at its
	// turn stalls every other; more goroutines than processors turn that
	// into scheduler-quantum stalls, hence at most GOMAXPROCS of them (but
	// two, for a race), sharing the same total of critical sections.
	var l TicketLock
	const total = 24000
	goroutines := max(2, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		iters := total / goroutines
		if g == 0 {
			iters += total % goroutines
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.Lock()
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	v := l.GetVersion()
	if v.IsLocked() {
		t.Fatal("lock left held")
	}
	if v.current() != uint32(total) {
		t.Fatalf("served %d critical sections, want %d", v.current(), total)
	}
}

func BenchmarkTicketOptikUncontended(b *testing.B) {
	var l TicketLock
	for i := 0; i < b.N; i++ {
		v := l.GetVersion()
		if l.TryLockVersion(v) {
			l.Unlock()
		}
	}
}

func BenchmarkTicketOptikContended(b *testing.B) {
	var l TicketLock
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			for {
				v := l.GetVersionWait()
				if l.TryLockVersion(v) {
					l.Unlock()
					break
				}
			}
		}
	})
}
