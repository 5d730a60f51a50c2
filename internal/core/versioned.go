// Package core implements the paper's primary contribution: the OPTIK-lock
// abstraction, which merges lock acquisition with version-number validation
// in a single compare-and-swap (§3.2).
//
// Two implementations are provided, exactly as in the paper:
//
//   - Lock: on top of versioned locks — a single 64-bit counter where an odd
//     value means locked (Figure 4). This is the default used by all data
//     structures.
//   - TicketLock: on top of ticket locks — 32-bit next/current halves packed
//     into one 64-bit word. It additionally exposes the queue length
//     (NumQueued) and proportional backoff, the properties the victim-queue
//     technique (§5.4) builds on.
//
// The key operation is TryLockVersion(v): it acquires the lock iff the lock
// is free AND its version still equals v, in one CAS. A thread therefore
// never waits behind a lock only to fail validation afterwards — the waste
// the lock-then-validate pattern of Figure 1 suffers from.
package core

import (
	"sync/atomic"

	"github.com/optik-go/optik/internal/backoff"
)

// Version is a snapshot of an OPTIK lock's version number, obtained from
// GetVersion or GetVersionWait and later passed to TryLockVersion or
// LockVersion for validation.
type Version uint64

// Init is the version of a freshly initialized (unlocked, never acquired)
// versioned OPTIK lock, the OPTIK_INIT of the paper.
const Init Version = 0

// lockedBit marks a versioned lock as held: odd values are locked.
const lockedBit = 1

// TagMask is a Lock word's owner tag byte, bits 56–63: state the guarded
// object keeps beside "locked" and "version" in the same word (the skip
// list's marked, linked and height bits). The counter below it never
// carries into it — Lock, Unlock, Revert and the validate-and-lock CAS
// change only bits 0–55 — so the tags change only through SetTags and
// Reissue, and, being part of the version, every tag change is a version
// change: a snapshot taken before it fails TryLockVersion.
const TagMask uint64 = 0xFF << 56

// counterMask is the rest of the word: the version counter, odd = locked.
const counterMask = ^TagMask

// checkTags panics unless bits lies within the tag byte.
func checkTags(bits uint64) {
	if bits&^TagMask != 0 {
		panic("core: lock tag bits outside bits 56-63")
	}
}

// IsLocked reports whether a versioned-lock version value corresponds to a
// held lock (odd values are locked).
func (v Version) IsLocked() bool { return v&lockedBit != 0 }

// Same reports whether two version snapshots are equal
// (optik_is_same_version).
func (v Version) Same(o Version) bool { return v == o }

// Tags returns v's tag bits, in place (bits 56–63; see TagMask).
func (v Version) Tags() uint64 { return uint64(v) & TagMask }

// Lock is an OPTIK lock built on a versioned lock: a single 64-bit counter.
// Even values mean unlocked; odd values mean locked. Acquisition CASes the
// current even value v to v+1; release increments again to v+2, so every
// completed critical section advances the version by exactly 2 and the
// version doubles as a count of completed critical sections (Figure 3).
// The counter is 56 bits wide; the word's top byte holds the owner's tags
// (TagMask), which are part of every version snapshot.
//
// The zero value is an unlocked lock with version Init and no tags.
type Lock struct {
	word atomic.Uint64
}

// GetVersion returns the current version (possibly a locked one). The load
// carries acquire semantics: no later access of the caller is reordered
// before it.
func (l *Lock) GetVersion() Version { return Version(l.word.Load()) }

// GetVersionWait spins until the lock is free and returns the (unlocked)
// version observed (optik_get_version_wait).
func (l *Lock) GetVersionWait() Version {
	for i := 0; ; i++ {
		v := Version(l.word.Load())
		if !v.IsLocked() {
			return v
		}
		backoff.Poll(i)
	}
}

// TryLockVersion acquires the lock iff it is free and its version equals
// target, in a single compare-and-swap. It returns whether the lock was
// acquired. A locked target never matches (the CAS would corrupt the odd
// value), and a fast-path load rejects stale versions without a CAS —
// both checks mirror lines 6-8 of Figure 4.
func (l *Lock) TryLockVersion(target Version) bool {
	if target.IsLocked() || Version(l.word.Load()) != target {
		return false
	}
	return l.word.CompareAndSwap(uint64(target), uint64(target)+1)
}

// LockVersion acquires the lock unconditionally (spinning while it is held)
// and returns whether the version it acquired equals target. A false return
// means a conflicting critical section committed since target was read; the
// caller holds the lock either way (optik_lock_version).
func (l *Lock) LockVersion(target Version) bool {
	for i := 0; ; i++ {
		cur := Version(l.word.Load())
		if cur.IsLocked() {
			backoff.Poll(i)
			continue
		}
		if l.word.CompareAndSwap(uint64(cur), uint64(cur)+1) {
			return cur == target
		}
	}
}

// Lock acquires the lock unconditionally, ignoring the version (plain
// spinlock usage; the paper's optik0 queue variant uses OPTIK locks this
// way for enqueues).
func (l *Lock) Lock() { l.LockVersion(^Version(0)) }

// Unlock increments the version and releases the lock. Only the lock holder
// may call it. The increment is the publication point: a changed version is
// how concurrent optimistic readers detect the modification. It is a CAS
// rather than an add so the counter wraps inside its 56 bits instead of
// carrying into the tags, and so a tag a concurrent SetTags wrote while the
// lock was held survives the release.
func (l *Lock) Unlock() {
	w := l.word.Load()
	for !l.word.CompareAndSwap(w, w&TagMask|(w+1)&counterMask) {
		w = l.word.Load()
	}
}

// Revert releases the lock restoring the version it had before acquisition,
// signalling that the critical section modified nothing (optik_revert).
// Only the lock holder may call it.
func (l *Lock) Revert() { l.word.Add(^uint64(0)) } // decrement by 1

// Tags returns the lock's tag bits at this instant, in place (bits 56–63):
// one atomic load, and no snapshot to validate — for a reader that needs a
// tag, not a version.
func (l *Lock) Tags() uint64 { return l.word.Load() & TagMask }

// SetTags sets the tag bits in tags, which must lie within TagMask, in one
// atomic OR that leaves the counter and the locked bit as they are. Any
// thread may call it, holder or not, and it composes with concurrent
// lockers and releases: each of them is an atomic read-modify-write of
// the whole word. Tags are cleared only by Reissue. Which thread may set
// which tag is the owning structure's protocol (docs/INVARIANTS.md).
func (l *Lock) SetTags(tags uint64) {
	checkTags(tags)
	l.word.Or(tags)
}

// Reissue hands the lock to a new life of the object it guards — a
// recycled node whose last holder never released it — in one step: the
// lock comes back free, its counter advanced past every version of the
// previous life (an odd counter by one, as Unlock would, an even one by
// two), and its tag byte replaced by tags. No snapshot taken in the
// previous life can validate against it. Only an owner with no concurrent
// user — a reclaimer handed the node by qsbr — may call it.
func (l *Lock) Reissue(tags uint64) {
	checkTags(tags)
	w := l.word.Load()
	l.word.Store(tags | ((w|lockedBit)+1)&counterMask)
}

// IsLockedNow reports whether the lock is held at this instant (racy; for
// monitoring and tests).
func (l *Lock) IsLockedNow() bool { return l.GetVersion().IsLocked() }
