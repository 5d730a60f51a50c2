// Package a seeds optikvalidate violations around a stub OPTIK lock —
// including the exact chain-hit shape this repo once shipped (an atomic
// value returned on a key match without re-validating the bucket
// version).
package a

import "sync/atomic"

// Version mirrors core.Version (matched by method names, not import path).
type Version uint64

// IsLocked reports the version's lock bit.
func (v Version) IsLocked() bool { return v&1 != 0 }

// Same compares two versions.
func (v Version) Same(o Version) bool { return v == o }

// Lock is a stub OPTIK lock.
type Lock struct {
	word atomic.Uint64
}

// GetVersion returns the current version.
func (l *Lock) GetVersion() Version { return Version(l.word.Load()) }

// GetVersionWait returns an unlocked version.
func (l *Lock) GetVersionWait() Version { return Version(l.word.Load()) }

// TryLockVersion validates and locks in one CAS.
func (l *Lock) TryLockVersion(v Version) bool { return l.word.CompareAndSwap(uint64(v), uint64(v)+1) }

// LockVersion always acquires; reports whether v was still current.
func (l *Lock) LockVersion(v Version) bool {
	return l.word.Add(1)&1 == 1 && Version(l.word.Load()-1) == v
}

// Lock spins until acquired.
func (l *Lock) Lock() { l.word.Add(1) }

// Unlock publishes a new version.
func (l *Lock) Unlock() { l.word.Add(1) }

// Revert releases without changing the version.
func (l *Lock) Revert() { l.word.Add(^uint64(0)) }

type node struct {
	key  uint64
	val  atomic.Uint64
	next atomic.Pointer[node]
}

type bucket struct {
	lock Lock
	head atomic.Pointer[node]
	slot atomic.Uint64
}

// goodChain is the fixed idiom: load, validate, then trust.
func goodChain(b *bucket, key uint64) (uint64, bool) {
	vn := b.lock.GetVersionWait()
	for cur := b.head.Load(); cur != nil; cur = cur.next.Load() {
		if cur.key == key {
			val := cur.val.Load()
			if b.lock.GetVersion().Same(vn) {
				return val, true
			}
			return 0, false
		}
	}
	if b.lock.GetVersion().Same(vn) {
		return 0, false
	}
	return 0, false
}

// buggyChain is the shipped chain-hit bug: a hit deep in the chain
// returns the value without re-validating the bucket version.
func buggyChain(b *bucket, key uint64) (uint64, bool) {
	vn := b.lock.GetVersionWait()
	for cur := b.head.Load(); cur != nil; cur = cur.next.Load() {
		if cur.key == key {
			return cur.val.Load(), true // want `atomic read returned without re-validating the version snapshot`
		}
	}
	if b.lock.GetVersion().Same(vn) {
		return 0, false
	}
	return 0, false
}

// buggyTainted returns a local read optimistically, validated only
// before the read — the validation proves nothing about it.
func buggyTainted(b *bucket) (uint64, bool) {
	vn := b.lock.GetVersionWait()
	if !b.lock.GetVersion().Same(vn) {
		return 0, false
	}
	val := b.slot.Load()
	return val, true // want `value read optimistically is returned without re-validating`
}

// loadAfterValidate reads inside the validated branch: the Same proved
// state up to the compare, not the load after it.
func loadAfterValidate(b *bucket) (uint64, bool) {
	vn := b.lock.GetVersion()
	if b.lock.GetVersion().Same(vn) {
		return b.slot.Load(), true // want `atomic read returned without re-validating the version snapshot`
	}
	return 0, false
}

// deadSnapshot takes a version and never validates or hands it off.
func deadSnapshot(b *bucket) uint64 {
	vn := b.lock.GetVersion() // want `version snapshot vn is never validated`
	if vn.IsLocked() {
		return 0
	}
	return 0
}

// lockedRead reads inside the critical section: safe by exclusion.
func lockedRead(b *bucket) (uint64, bool) {
	for {
		vn := b.lock.GetVersion()
		if !b.lock.TryLockVersion(vn) {
			continue
		}
		val := b.slot.Load()
		b.lock.Unlock()
		return val, true
	}
}

// lockVersionPath mirrors the queue's Optik0 dequeue: LockVersion
// acquires on both outcomes, so both returns are under the lock.
func lockVersionPath(b *bucket) (uint64, bool) {
	vn := b.lock.GetVersionWait()
	val := b.slot.Load()
	if b.lock.LockVersion(vn) {
		b.lock.Unlock()
		return val, true
	}
	val = b.slot.Load()
	b.lock.Unlock()
	return val, true
}

// traverse hands the snapshot and a node pointer to the caller to
// validate — the hand-over-hand idiom, not a violation.
func traverse(b *bucket) (*node, Version) {
	cur := b.head.Load()
	curv := b.lock.GetVersion()
	return cur, curv
}

// searchNoSnap never snapshots a version: deliberately non-validating
// designs are out of optikvalidate's scope.
func searchNoSnap(b *bucket, key uint64) (uint64, bool) {
	for cur := b.head.Load(); cur != nil; cur = cur.next.Load() {
		if cur.key == key {
			return cur.val.Load(), true
		}
	}
	return 0, false
}

// Word stubs core.Word: a generic table's value word, loaded through a
// package-level LoadWord (matched by name).
type Word[V any] struct{ v atomic.Pointer[V] }

// LoadWord stubs core.LoadWord.
func LoadWord[V any](w *Word[V]) V { return *w.v.Load() }

type gnode[V any] struct {
	key  uint64
	val  Word[V]
	next atomic.Pointer[gnode[V]]
}

type gbucket[V any] struct {
	lock Lock
	head atomic.Pointer[gnode[V]]
}

// goodGeneric validates before trusting the value word it read.
func goodGeneric[V any](b *gbucket[V], key uint64) (V, bool) {
	vn := b.lock.GetVersionWait()
	for cur := b.head.Load(); cur != nil; cur = cur.next.Load() {
		if cur.key == key {
			val := LoadWord(&cur.val)
			if b.lock.GetVersion().Same(vn) {
				return val, true
			}
			break
		}
	}
	var zero V
	return zero, false
}

// buggyGeneric is the chain-hit bug on a generic table: the value word is
// returned straight from the optimistic read.
func buggyGeneric[V any](b *gbucket[V], key uint64) (V, bool) {
	vn := b.lock.GetVersionWait()
	for cur := b.head.Load(); cur != nil; cur = cur.next.Load() {
		if cur.key == key {
			return LoadWord(&cur.val), true // want `atomic read returned without re-validating the version snapshot`
		}
	}
	if b.lock.GetVersion().Same(vn) {
		var zero V
		return zero, false
	}
	var zero V
	return zero, false
}

// buggyGenericTainted returns a value word read before the only
// validation that could have covered it was skipped.
func buggyGenericTainted[V any](b *gbucket[V]) (V, bool) {
	vn := b.lock.GetVersionWait()
	val := LoadWord(&b.head.Load().val)
	if vn.IsLocked() {
		return val, false // want `value read optimistically is returned without re-validating`
	}
	if !b.lock.GetVersion().Same(vn) {
		var zero V
		return zero, false
	}
	return val, true
}
