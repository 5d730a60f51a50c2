// The ordered command family: SCAN, RANGE, MIN, MAX (docs/PROTOCOL.md has
// the grammar). All four are coalescer barriers — they drain any staged
// run first, like LEN or STATS — because their replies depend on global
// index order, which a half-applied staged run would make unanswerable in
// arrival-order semantics.
//
// SCAN pages with a STABLE cursor: the cursor is a resumption KEY (the
// smallest key the next page may contain), not a position. A positional
// cursor breaks under churn — deletions ahead of it skip entries,
// insertions repeat them — while a resumption key inherits the skip list's
// own guarantee: keys are returned in strictly ascending order, so "give
// me keys >= c" neither skips nor repeats anything that stays present
// across the pages (the store's cursor-invariant test pins exactly this).
package server

import (
	"slices"

	"github.com/optik-go/optik/ds"
)

const (
	// defaultScanCount is the page size when SCAN/RANGE carry no
	// COUNT/LIMIT.
	defaultScanCount = 128
	// maxScanCount caps a requested page, bounding one reply's memory.
	maxScanCount = 4096
)

// digitPairs is "00" through "99": the decimal formatter below writes two
// digits per division out of it.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendBulkUint frames a uint64 as a decimal bulk string with no staging
// buffer: the digits are counted first, so the length prefix is known, dst
// grows once and every digit is written straight into its final place, last
// to first.
func appendBulkUint(dst []byte, v uint64) []byte {
	n := 1 // decimal digits in v; the 20th is the last a uint64 can have
	for p := uint64(10); n < 20 && v >= p; p *= 10 {
		n++
	}
	hdr := len("$0\r\n")
	if n >= 10 {
		hdr++
	}
	at := len(dst)
	dst = slices.Grow(dst, hdr+n+len(crlf))[:at+hdr+n+len(crlf)]
	b := dst[at:]
	b[0] = '$'
	if n >= 10 {
		b[1] = byte('0' + n/10)
	}
	b[hdr-3] = byte('0' + n%10)
	b[hdr-2], b[hdr-1] = '\r', '\n'
	i := hdr + n
	b[i], b[i+1] = '\r', '\n'
	for v >= 100 {
		q := v / 100
		r := (v - q*100) * 2
		i -= 2
		b[i], b[i+1] = digitPairs[r], digitPairs[r+1]
		v = q
	}
	if v >= 10 {
		b[i-2], b[i-1] = digitPairs[v*2], digitPairs[v*2+1]
	} else {
		b[i-1] = byte('0' + v)
	}
	return dst
}

// clampKeyRange pulls an arbitrary wire uint64 pair into the index key
// space (RANGE 0 18446744073709551615 means "everything").
func clampKeyRange(min, max uint64) (uint64, uint64) {
	if min < ds.MinKey {
		min = ds.MinKey
	}
	if max > ds.MaxKey {
		max = ds.MaxKey
	}
	return min, max
}

// prefixRanges appends the key ranges whose decimal representation starts
// with the digits of prefix, in ascending key order: value v with d
// trailing digits spans [v·10^d, (v+1)·10^d − 1], one range per digit
// count until 10^d·v overflows the key space. The ranges are disjoint and
// ascending (each is a full power-of-ten slice above the previous), so a
// scan visiting them in order emits globally ascending keys and the
// resumption cursor stays valid across them.
func prefixRanges(v uint64, dst [][2]uint64) [][2]uint64 {
	if v == 0 {
		// Decimal representations have no leading zeros; only the key 0
		// itself would match, and 0 is outside the key range.
		return dst
	}
	for scale := uint64(1); ; scale *= 10 {
		if v > ds.MaxKey/scale {
			break
		}
		lo := v * scale
		hi := lo + (scale - 1)
		if hi < lo || hi > ds.MaxKey {
			hi = ds.MaxKey
		}
		if lo < ds.MinKey {
			lo = ds.MinKey
		}
		dst = append(dst, [2]uint64{lo, hi})
		if scale > ds.MaxKey/10 {
			break
		}
	}
	return dst
}

// appendPage frames a gathered page as alternating key/value bulks,
// spilling like every multi-entry reply, and clears the value slots so the
// connection's reusable scratch pins no values.
func (cs *connState) appendPage(keys []uint64, vals []string) error {
	defer clear(vals)
	for i, k := range keys {
		cs.out = appendBulkUint(cs.out, k)
		cs.out = appendBulk(cs.out, vals[i])
		if err := cs.spill(); err != nil {
			return err
		}
	}
	return nil
}

// executeScan answers SCAN cursor [PREFIX p] [COUNT n]: a flat array
// whose first element is the next cursor (0 = exhausted) followed by
// key/value pairs.
func (cs *connState) executeScan(rest [][]byte) error {
	if len(rest) < 1 || len(rest)%2 != 1 {
		return cs.arity("scan")
	}
	cursor, ok := parseUint(rest[0])
	if !ok {
		return cs.softError("ERR invalid cursor")
	}
	count := defaultScanCount
	// At most one range per digit count (prefixRanges), so the stack array
	// always suffices and a SCAN allocates nothing.
	var rangeBuf [20][2]uint64
	ranges := rangeBuf[:0]
	prefixed := false
	for i := 1; i < len(rest); i += 2 {
		switch {
		case cmdEq(rest[i], "COUNT"):
			n, ok := parseUint(rest[i+1])
			if !ok || n == 0 {
				return cs.softError("ERR invalid COUNT")
			}
			if n > maxScanCount {
				n = maxScanCount
			}
			count = int(n)
		case cmdEq(rest[i], "PREFIX"):
			p := rest[i+1]
			v, ok := parseUint(p)
			if !ok || len(p) > 0 && p[0] == '0' {
				return cs.softError("ERR invalid PREFIX")
			}
			prefixed = true
			ranges = prefixRanges(v, ranges[:0])
		default:
			return cs.softError("ERR syntax error in SCAN")
		}
	}
	if prefixed && len(ranges) == 0 {
		// The prefix matches no representable key (e.g. a value above
		// ds.MaxKey): an empty page with cursor 0, not the full-range
		// default below.
		cs.out = appendBulkUint(appendArrayHeader(cs.out, 1), 0)
		return nil
	}
	if !prefixed {
		ranges = append(ranges, [2]uint64{ds.MinKey, ds.MaxKey})
	}

	keys, vals := cs.co.page(count)
	filled := 0
	exhausted := true
	for _, r := range ranges {
		lo, hi := r[0], r[1]
		if cursor > lo {
			lo = cursor
		}
		if lo > hi {
			continue
		}
		filled += cs.srv.sorted.Scan(lo, hi, keys[filled:], vals[filled:])
		if filled == count {
			// The page is full; unless this range (and every later one) is
			// truly done, more may remain.
			exhausted = keys[filled-1] == hi && r == ranges[len(ranges)-1]
			break
		}
	}
	next := uint64(0)
	if filled > 0 && !exhausted && keys[filled-1] < ds.MaxKey {
		next = keys[filled-1] + 1
	}
	cs.out = appendBulkUint(appendArrayHeader(cs.out, 1+2*filled), next)
	return cs.appendPage(keys[:filled], vals[:filled])
}

// executeRange answers RANGE min max [LIMIT n]: a flat array of key/value
// pairs for min <= key <= max, ascending, at most n pairs (default 128,
// cap 4096). Unlike SCAN it carries no cursor — callers page by reissuing
// with min = lastKey+1.
func (cs *connState) executeRange(rest [][]byte) error {
	if len(rest) != 2 && len(rest) != 4 {
		return cs.arity("range")
	}
	lo, ok1 := parseUint(rest[0])
	hi, ok2 := parseUint(rest[1])
	if !ok1 || !ok2 {
		return cs.softError("ERR invalid range bound")
	}
	limit := defaultScanCount
	if len(rest) == 4 {
		if !cmdEq(rest[2], "LIMIT") {
			return cs.softError("ERR syntax error in RANGE")
		}
		n, ok := parseUint(rest[3])
		if !ok || n == 0 {
			return cs.softError("ERR invalid LIMIT")
		}
		if n > maxScanCount {
			n = maxScanCount
		}
		limit = int(n)
	}
	lo, hi = clampKeyRange(lo, hi)
	if lo > hi {
		cs.out = appendArrayHeader(cs.out, 0)
		return nil
	}
	keys, vals := cs.co.page(limit)
	filled := cs.srv.sorted.Scan(lo, hi, keys, vals)
	cs.out = appendArrayHeader(cs.out, 2*filled)
	return cs.appendPage(keys[:filled], vals[:filled])
}

// executeEndpoint answers MIN and MAX: a two-element [key, value] array,
// or an empty array on an empty store.
func executeEndpoint(out []byte, k uint64, v string, ok bool) []byte {
	if !ok {
		return appendArrayHeader(out, 0)
	}
	out = appendArrayHeader(out, 2)
	out = appendBulkUint(out, k)
	return appendBulk(out, v)
}
