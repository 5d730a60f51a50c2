// Tiered connection-buffer pools: the OPTIK "pay only on contention"
// principle applied to memory. A connection's two byte slices (read buffer
// `in`, reply buffer `out`; conn.go) are acquired from size-tiered
// sync.Pools on the first readable byte and returned when the connection
// has sat idle past the grace or closes — so an idle connection costs its
// registration and its handler's stack, not its buffers, and connection
// churn stops allocating fresh buffers per accept. The server charges what each connection holds to
// buffersResident, the STATS `buffers_resident` RSS proxy.
//
// One pool per power-of-two size tier, each holding slices of exactly its
// size: a requested size is rounded UP to its tier, so a non-power-of-two
// WithBufferSize gets slightly larger buffers than asked — never smaller.
// A read buffer grown by doubling is again a tier size and goes back to
// that tier; a reply buffer grown by append rarely is, and is left to the
// GC.

package server

import "sync"

const (
	minTierShift = 9  // 512 B — the WithBufferSize floor
	maxTierShift = 20 // 1 MiB — larger requests allocate unpooled
	numTiers     = maxTierShift - minTierShift + 1
)

// tierFor returns the tier index whose size (1 << (minTierShift+i)) is the
// smallest that holds n, and that size; ok is false when n outgrows the
// largest tier.
func tierFor(n int) (idx, size int, ok bool) {
	size = 1 << minTierShift
	for i := 0; i < numTiers; i++ {
		if size >= n {
			return i, size, true
		}
		size <<= 1
	}
	return 0, n, false
}

var bytesPools [numTiers]sync.Pool // *[]byte with cap == the tier size

// getBytes returns a zero-length slice whose capacity is size rounded up
// to its tier — exactly size when size is a tier, or larger than every
// tier (those are allocated unpooled).
func getBytes(size int) []byte {
	idx, tsize, ok := tierFor(size)
	if ok {
		if p, _ := bytesPools[idx].Get().(*[]byte); p != nil {
			return *p
		}
	}
	return make([]byte, 0, tsize)
}

// putBytes returns a slice to the tier whose size its capacity is; any
// other capacity is dropped.
func putBytes(b []byte) {
	if idx, tsize, ok := tierFor(cap(b)); ok && tsize == cap(b) {
		b = b[:0]
		bytesPools[idx].Put(&b)
	}
}
