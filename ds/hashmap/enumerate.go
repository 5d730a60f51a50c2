package hashmap

import (
	"math/bits"

	"github.com/optik-go/optik/internal/core"
	"github.com/optik-go/optik/internal/rng"
)

// Enumeration: the two ways a layer above reaches entries it holds no key
// for — a random sample (the string layer's eviction victims) and a sweep
// that visits every entry once per lap (its expiry sweep). Both are
// lock-free readers like Search: every bucket they report is read under a
// version snapshot and validated before anything leaves it.

// SampleWidth is how many entries one Sample call reports at most.
const SampleWidth = 8

// sampleRun is how many consecutive buckets one Sample call reads: at the
// table's maximum load factor they hold SampleWidth entries on average.
const sampleRun = SampleWidth / maxLoad

// Sample reads a run of sampleRun consecutive buckets of the current slab,
// starting at the one rnd's low bits choose, through collect, the sweep's
// validated read (a forwarded bucket is read where its entries went), and
// reports their entries: one random miss and then sequential lines, where
// independent probes would spend a miss per bucket. A run holding more
// than SampleWidth entries is thinned by reservoir sampling, rnd stepped
// for the draws, so each of its T entries is reported with chance
// SampleWidth/T. Every entry is then reported by the sampleRun runs that
// cover its bucket, each time with chance min(1, SampleWidth/T): within 2×
// of uniform up to the maximum load (TestSampleNearUniform). A run that
// stopped at SampleWidth entries instead would starve the entries after a
// dense stretch — 6 % of a 10,000-key table drew under half their share,
// the worst an eighth. Neighbouring buckets hold keys whose hashes are
// alike, which says nothing about how they are used, so a best-of-K
// eviction over a run is as good as over K independent draws. n is 0 only
// for a run of empty buckets.
func (r *Resizable[V]) Sample(rnd uint64) (keys [SampleWidth]uint64, vals [SampleWidth]V, n int) {
	t := r.root.Load()
	var bk [SampleWidth]uint64
	var bv [SampleWidth]V
	draw := rnd
	for i := uint64(0); i < sampleRun; i++ {
		m, _ := t.collect((rnd+i)&t.mask, bk[:], bv[:])
		for j := range m {
			slot := n
			if n >= SampleWidth {
				draw = rng.Step(draw)
				slot = int(rng.Mix(draw) % uint64(n+1))
			}
			if slot < SampleWidth {
				keys[slot], vals[slot] = bk[j], bv[j]
			}
			n++
		}
	}
	return keys, vals, min(n, SampleWidth)
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
