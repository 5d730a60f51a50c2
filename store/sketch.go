// The read sketch: how often each key has been read of late, kept apart
// from the key's pairs so that it outlives every one of them — an
// overwrite, an expiry, an eviction. Admission asks it about a key the
// store has just inserted, whose pair is seconds old but whose key may
// have been read a hundred times, and the eviction sample asks it which
// resident is read least (TinyLFU: Einziger, Friedman & Manes, "TinyLFU: A
// Highly Efficient Cache Admission Policy", ACM TOS 2017).
package store

import (
	"math/bits"
	"sync/atomic"

	"github.com/optik-go/optik/internal/core"
)

const (
	// sketchMinWords and sketchMaxWords bound the table. The floor keeps a
	// tiny budget's counters from colliding on every key; the cap (8 MiB)
	// keeps a budget written as "unbounded" — WithByteBudget(MaxInt64) —
	// from sizing a table for entries no heap could hold. It still gives a
	// budget of ~4 M entries a counter of its own in each quarter.
	sketchMinWords = 64
	sketchMaxWords = 1 << 20
	// sketchPeriod is the halving period in counted reads per live entry:
	// TinyLFU's sample of ten reads for every entry the cache holds.
	sketchPeriod = 10
	// sketchMul spreads a key over the table. It is not the hash table's
	// Fibonacci multiplier, so the keys of one sampled bucket run do not
	// all land in one sketch word.
	sketchMul = 0xD6E8FEB86659FD93
	// counterMax is where a 4-bit counter saturates.
	counterMax = 15
)

// sketch is a count-min sketch of key reads, built only under a byte
// budget. A key maps to one 64-bit word of the table and, within it, to
// four 4-bit counters, one in each 16-bit quarter: its estimate is the
// least of the four, so a read touches one line and an estimate is
// inflated only where all four of its counters are shared. A read raises
// only the counters that hold that least value (the minimal increment),
// which keeps a key that shares counters with a hot one from inheriting
// its count. Every counter halves once the table has counted
// sketchPeriod reads per live entry, so an estimate is of recent reads;
// a counter therefore never needs more than four bits.
//
// Updates are plain atomic loads and stores, never a read-modify-write:
// two concurrent reads of keys that share a word can lose a count, and a
// read racing a halving can undo the halving of its word. Like the pair's
// recency stamp the sketch only ever picks a victim, so a lost count is a
// misjudged victim, never a wrong reply.
type sketch struct {
	words []atomic.Uint64
	// shift is 64 − log2(len(words)): a key's word is the top bits of its
	// product with sketchMul, and the eight bits below them pick its four
	// counters.
	shift uint
	_     core.CacheLinePad
	// left counts down the counted reads before the next halving; the read
	// that takes it to zero halves the table and re-arms it. It owns its
	// line: every read that raises a counter stores to it.
	left atomic.Int64
	_    core.CacheLinePad
}

// newSketch sizes the table for a budget: four counters, one in each
// quarter, for every entry the budget could hold if every value were empty
// (budget / PairOverhead), rounded up to a power of two of words, within
// [sketchMinWords, sketchMaxWords]. A key reads one counter per quarter,
// so a full store of empty values gives every key a counter of its own in
// each. A quarter of this size aliases the keys a budgeted store judges:
// a key read once then estimates 2 or more, above the raze bar, and a key
// never read estimates 1, above an unread newcomer, about a fifth of the
// time each (TestSketchKeepsColdKeysCold); four times this size gains
// little (docs/ARCHITECTURE.md has the rows). cache_churn's budget gets
// 131,072 words, 1 MiB.
func newSketch(budget int64) *sketch {
	entries := budget / PairOverhead
	n := sketchMinWords
	for n < sketchMaxWords && int64(n)*4 < entries {
		n <<= 1
	}
	sk := &sketch{words: make([]atomic.Uint64, n), shift: uint(64 - bits.TrailingZeros(uint(n)))}
	sk.left.Store(sketchPeriod * int64(n))
	return sk
}

// slot returns k's word and its counter selector: bits 2i and 2i+1 of sel
// pick the counter k uses in quarter i of the word.
func (sk *sketch) slot(k uint64) (*atomic.Uint64, uint64) {
	h := k * sketchMul
	return &sk.words[h>>sk.shift], h >> (sk.shift - 8)
}

// least returns the least of the four counters sel picks in word.
func least(word, sel uint64) uint64 {
	m := uint64(counterMax)
	for i := range 4 {
		m = min(m, word>>counterShift(sel, i)&counterMax)
	}
	return m
}

// counterShift is the bit offset of the counter sel picks in quarter i.
func counterShift(sel uint64, i int) uint64 {
	return uint64(16*i) + 4*(sel>>(2*i)&3)
}

// count returns k's estimated reads since the halvings took them back.
func (sk *sketch) count(k uint64) uint32 {
	w, sel := sk.slot(k)
	return uint32(least(w.Load(), sel))
}

// counts sets freq[j] to count(keys[j]) for every key. The loads are
// independent and nothing waits on one before the next is issued, so an
// eviction probe's misses into the table overlap rather than queue.
func (sk *sketch) counts(keys []uint64, freq []uint32) {
	for j, k := range keys {
		w, sel := sk.slot(k)
		freq[j] = uint32(least(w.Load(), sel))
	}
}

// add counts one read of k and reports whether it ended the period: the
// caller then halves the table (halve). A read whose least counter has
// saturated changes nothing, stores nothing and is not counted toward the
// period — a hot key read at every turn does not write the table's lines.
func (sk *sketch) add(k uint64) bool {
	w, sel := sk.slot(k)
	old := w.Load()
	m := least(old, sel)
	if m == counterMax {
		return false
	}
	word := old
	for i := range 4 {
		if s := counterShift(sel, i); old>>s&counterMax == m {
			word += 1 << s
		}
	}
	w.Store(word)
	return sk.left.Add(-1) == 0
}

// halve halves every counter in place and re-arms the period at period
// counted reads. It allocates nothing; on cache_churn's 131,072 words it is
// a sweep of 1 MiB once per ~1.3 million counted reads.
func (sk *sketch) halve(period int64) {
	for i := range sk.words {
		w := &sk.words[i]
		w.Store(w.Load() >> 1 & 0x7777_7777_7777_7777)
	}
	sk.left.Store(period)
}
