package core

import (
	"runtime"
	"sync/atomic"

	"github.com/optik-go/optik/internal/backoff"
)

// TicketVersion is a snapshot of a TicketLock: the 32-bit next-ticket and
// now-serving halves packed in one word. For an unlocked lock the halves are
// equal and the now-serving half is the version number.
type TicketVersion uint64

const ticketShift = 32

func (v TicketVersion) next() uint32    { return uint32(v >> ticketShift) }
func (v TicketVersion) current() uint32 { return uint32(v) }

// IsLocked reports whether the snapshot corresponds to a held lock: the
// lock is busy whenever next != current.
func (v TicketVersion) IsLocked() bool { return v.next() != v.current() }

// Same reports whether two snapshots denote the same version. Both must be
// unlocked snapshots (as returned by GetVersionWait) for the comparison to
// be meaningful; it then reduces to equality of the serving halves.
func (v TicketVersion) Same(o TicketVersion) bool { return v.current() == o.current() }

// Queued returns the number of threads holding or waiting for the lock at
// the time of the snapshot (0 = free): ticket - current, exactly the
// "amount of queuing behind the lock" property of §3.2.
func (v TicketVersion) Queued() uint32 { return v.next() - v.current() }

// TicketLock is an OPTIK lock built on a ticket lock (the implementation
// that gave OPTIK its name: "optimistic concurrency with ticket locks").
// It is fair (FIFO), exposes the queue length, and supports waiting with
// backoff proportional to the thread's distance from the head of the queue.
//
// Its version number is 32 bits wide, so a thread that sleeps on a stored
// version for 2^32 acquisitions can validate incorrectly (§3.2); the
// versioned-lock implementation (Lock) extends this to 2^63.
//
// The zero value is an unlocked lock with version 0.
type TicketLock struct {
	word atomic.Uint64 // high 32 bits: next ticket; low 32 bits: now serving
}

// GetVersion returns the current snapshot (possibly locked).
func (l *TicketLock) GetVersion() TicketVersion { return TicketVersion(l.word.Load()) }

// GetVersionWait spins until the lock is free and returns the unlocked
// snapshot observed.
func (l *TicketLock) GetVersionWait() TicketVersion {
	for i := 0; ; i++ {
		v := TicketVersion(l.word.Load())
		if !v.IsLocked() {
			return v
		}
		backoff.Poll(i)
	}
}

// TryLockVersion acquires the lock iff it is free and its version equals
// target's, in a single compare-and-swap: the CAS grabs the next ticket
// only if the whole word still equals the unlocked target snapshot.
func (l *TicketLock) TryLockVersion(target TicketVersion) bool {
	if target.IsLocked() || TicketVersion(l.word.Load()) != target {
		return false
	}
	return l.word.CompareAndSwap(uint64(target), uint64(target)+(1<<ticketShift))
}

// LockVersion draws a ticket, waits until served, and returns whether the
// version it acquired equals target's version.
func (l *TicketLock) LockVersion(target TicketVersion) bool {
	my := l.drawTicket()
	for i := 0; uint32(l.word.Load()) != my; i++ {
		backoff.Poll(i)
	}
	return my == target.current()
}

// LockVersionBackoff is LockVersion with waiting proportional to the
// thread's distance from the head of the queue, the optik_lock_backoff
// extension of §3.2.
func (l *TicketLock) LockVersionBackoff(target TicketVersion) bool {
	my := l.drawTicket()
	for i := 0; ; i++ {
		cur := uint32(l.word.Load())
		if cur == my {
			return my == target.current()
		}
		// Spin proportionally to the number of threads ahead of us; each
		// of them will hold the lock for roughly a constant-length
		// critical section. Every 64th poll yields instead, as
		// backoff.Poll does: with more waiters than processors the holder
		// or the next in line may be descheduled, and spinning on would
		// hand it the lock only at the end of our time slice.
		if i&63 == 63 {
			runtime.Gosched()
			continue
		}
		backoff.Spin(int(my-cur) * backoff.InitialSpin)
	}
}

// Lock acquires the lock unconditionally (plain fair spinlock usage).
func (l *TicketLock) Lock() {
	my := l.drawTicket()
	for i := 0; uint32(l.word.Load()) != my; i++ {
		backoff.Poll(i)
	}
}

func (l *TicketLock) drawTicket() uint32 {
	w := l.word.Add(1 << ticketShift)
	return uint32(w>>ticketShift) - 1
}

// Unlock advances the now-serving half, releasing the lock and incrementing
// the version in one step (the unlock function of ticket locks "simply
// increments the version"). A CAS loop confines the 32-bit increment to the
// low half so a serving counter of 0xffffffff wraps within its own half
// instead of carrying into the ticket half; it only retries when a
// concurrent ticket draw moves the word.
func (l *TicketLock) Unlock() {
	for {
		w := l.word.Load()
		next := uint32(w >> ticketShift)
		cur := uint32(w) + 1
		nw := uint64(next)<<ticketShift | uint64(cur)
		if l.word.CompareAndSwap(w, nw) {
			return
		}
	}
}

// Revert releases the lock restoring the version it had before
// acquisition, by returning the ticket that Lock/TryLockVersion drew.
func (l *TicketLock) Revert() {
	l.word.Add(^uint64(1<<ticketShift) + 1) // subtract 1<<32
}

// NumQueued returns the number of threads holding or waiting for the lock
// (optik_num_queued). The victim-queue enqueue path (§5.4) consults it to
// decide between waiting and diverting to the victim queue.
func (l *TicketLock) NumQueued() uint32 { return l.GetVersion().Queued() }

// IsLockedNow reports whether the lock is held at this instant (racy; for
// monitoring and tests).
func (l *TicketLock) IsLockedNow() bool { return l.GetVersion().IsLocked() }
