package hashmap

import (
	"math/bits"

	"github.com/optik-go/optik/internal/core"
)

// Enumeration: the two ways a layer above reaches entries it holds no key
// for — a random sample (the string layer's eviction victims) and a sweep
// that visits every entry once per lap (its expiry sweep). Both are
// lock-free readers like Search: every bucket they report is read under a
// version snapshot and validated before anything leaves it.

// SampleWidth is how many entries one Sample probe reports at most: the
// three inline pairs and the first chain node, everything a bucket holds
// at the table's usual load.
const SampleWidth = inlinePairs + 1

// Sample probes one random bucket of the current slab, rnd's low bits
// choosing it, and reports its entries — all of them when they fit in
// SampleWidth, else a window of SampleWidth consecutive ones starting at a
// position rnd's bits 32 and up choose. Every entry of a bucket holding at
// most SampleWidth entries is therefore reported by exactly the probes
// that pick its bucket, one in len(buckets) — the same for every such
// entry, so each entry's share of the draws is uniform — and an entry of
// a fuller bucket of n by SampleWidth/n of those: within 2× of uniform up
// to eight entries, which at the table's maximum load factor of 2 is a
// one-in-several-thousand bucket. Entries of one probe share a bucket,
// which says nothing about how they are used, so a best-of-K eviction
// over them is as good as over K independent draws. n is 0 for an empty
// bucket, one forwarded mid-resize, or one that changed under the read; a
// caller wanting k entries spends probes until it has them — at load
// factor 1, about one entry per probe.
func (r *Resizable[V]) Sample(rnd uint64) (keys [SampleWidth]uint64, vals [SampleWidth]V, n int) {
	t := r.root.Load()
	b := &t.buckets[rnd&t.mask]
	vn := b.lock.GetVersionWait()
	head := b.head.Load()
	if head == forwardedNode[V]() {
		return keys, vals, 0
	}
	total := 0
	for i := range b.inline {
		if b.inline[i].key.Load() != 0 {
			total++
		}
	}
	for cur := head; cur != nil; cur = cur.next.Load() {
		total++
	}
	if total == 0 {
		return keys, vals, 0
	}
	// The window is positions skip, skip+1, … mod total; n < SampleWidth
	// also guards a bucket that grew since it was counted.
	skip := 0
	if total > SampleWidth {
		skip = int((rnd >> 32) % uint64(total))
	}
	pos := 0
	for i := range b.inline {
		if k := b.inline[i].key.Load(); k != 0 {
			if n < SampleWidth && (pos+total-skip)%total < SampleWidth {
				keys[n], vals[n] = k, core.LoadWord(&b.inline[i].val)
				n++
			}
			pos++
		}
	}
	for cur := head; cur != nil && pos < total; cur = cur.next.Load() {
		if n < SampleWidth && (pos+total-skip)%total < SampleWidth {
			keys[n], vals[n] = cur.key.Load(), core.LoadWord(&cur.val)
			n++
		}
		pos++
	}
	if !b.lock.GetVersion().Same(vn) {
		return [SampleWidth]uint64{}, [SampleWidth]V{}, 0
	}
	return keys, vals, n
}

// Sweep copies the entries of the buckets at and after cursor into keys
// and vals, one bucket at a time for at most len(keys) buckets, and
// returns how many it copied and the cursor to resume from — 0 once the
// lap is complete, as a first call passes 0 to start one. The cursor is
// redis' dictScan cursor: bucket indexes advance in reverse-binary order
// over the slab's mask, so a grow or shrink between calls neither skips a
// bucket the lap has not reached (a doubled slab's bucket i splits into i
// and i+n, which a reversed increment visits after i's prefix; a halved
// slab's buckets merge onto a prefix the lap either passed or has yet to
// reach) — every key present for the whole lap is returned at least once,
// some after a shrink twice. A bucket forwarded by a resize in flight is
// read where its entries went: both halves of a grow, the merged bucket of
// a shrink. A bucket that does not fit what is left of keys ends the call
// and is read whole by the next one; only a bucket holding more than
// len(keys) entries on its own is cut short.
func (r *Resizable[V]) Sweep(cursor uint64, keys []uint64, vals []V) (n int, next uint64) {
	t := r.root.Load()
	for visits := 0; visits < len(keys); visits++ {
		m, whole := t.collect(cursor&t.mask, keys[n:], vals[n:])
		if !whole && n > 0 {
			return n, cursor
		}
		n += m
		cursor |= ^t.mask
		cursor = bits.Reverse64(bits.Reverse64(cursor) + 1)
		if cursor == 0 {
			return n, 0
		}
	}
	return n, cursor
}

// collect copies bucket idx's entries into keys/vals under a validated
// snapshot, following a forwarded bucket into the next slab, and reports
// whether they all fit.
func (t *rtable[V]) collect(idx uint64, keys []uint64, vals []V) (n int, whole bool) {
	b := &t.buckets[idx]
restart:
	vn := b.lock.GetVersionWait()
	head := b.head.Load()
	if head == forwardedNode[V]() {
		return t.collectForwarded(idx, keys, vals)
	}
	n, whole = 0, true
	for i := range b.inline {
		if k := b.inline[i].key.Load(); k != 0 {
			if n == len(keys) {
				whole = false
				break
			}
			keys[n], vals[n] = k, core.LoadWord(&b.inline[i].val)
			n++
		}
	}
	for cur := head; whole && cur != nil; cur = cur.next.Load() {
		if n == len(keys) {
			whole = false
			break
		}
		keys[n], vals[n] = cur.key.Load(), core.LoadWord(&cur.val)
		n++
	}
	if !b.lock.GetVersion().Same(vn) {
		goto restart
	}
	return n, whole
}

// collectForwarded is collect for a forwarded bucket idx, whose entries
// are in the next slab for good: both halves of a grow, or the merged
// bucket of a shrink.
func (t *rtable[V]) collectForwarded(idx uint64, keys []uint64, vals []V) (n int, whole bool) {
	next := t.next.Load()
	if len(next.buckets) < len(t.buckets) {
		return next.collect(idx&next.mask, keys, vals)
	}
	lo, loWhole := next.collect(idx, keys, vals)
	hi, hiWhole := next.collect(idx+uint64(len(t.buckets)), keys[lo:], vals[lo:])
	return lo + hi, loWhole && hiWhole
}
