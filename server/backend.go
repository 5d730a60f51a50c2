// The server/store boundary. Both servers drive one store.Strings — the
// string layer is the same code over a hash-routed or a sorted index — so
// the whole command surface (point ops, batches, TTL, eviction, STATS) is
// shared verbatim. A server over a store.SortedStrings differs in exactly
// two places:
//
//   - the key codec: how a wire key maps into the uint64 index space. The
//     hash server hashes arbitrary bytes (FNV-1a) and can never fail; the
//     ordered server parses a decimal uint64 — hashing would destroy the
//     order SCAN/RANGE serve — and rejects anything else, which the
//     dispatcher turns into a soft per-request error.
//   - the ordered family: SCAN/RANGE/MIN/MAX exist only where the index
//     can answer them (Server.sorted non-nil); the hash server answers
//     -ERR.
package server

import (
	"fmt"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/store"
)

// key maps a wire key into the index's key space; false means the key is
// not representable (a soft error).
func (s *Server) key(arg []byte) (uint64, bool) {
	if s.sorted == nil {
		return store.HashKeyBytes(arg), true
	}
	return decimalKey(arg)
}

// decimalKey parses a decimal uint64 in the index key range. Overflow,
// non-digit bytes, and the two sentinel values are all rejected.
func decimalKey(arg []byte) (uint64, bool) {
	if len(arg) == 0 || len(arg) > 20 {
		return 0, false
	}
	var n uint64
	for _, c := range arg {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (^uint64(0)-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, n >= ds.MinKey && n <= ds.MaxKey
}

// statsPrefix renders the store-side lines of the STATS reply; the server
// appends its own connection/command counters after it. One line set for
// both stores, so stats consumers read them with one parser: nodes_* count
// retired/reclaimed/reused index nodes (chain nodes of the hash tables,
// towers of the skip lists), buckets/resizes read 0 where shards do not
// resize, and an ordered server adds the ordered:1 discriminator.
func (s *Server) statsPrefix() string {
	idx := s.st.Index()
	retired, reclaimed, reused := idx.ReclaimStats()
	lazy, swept, evicted := s.st.TTLStats()
	prefix := fmt.Sprintf(
		"len:%d\nshards:%d\nbuckets:%d\nresizes:%d\n"+
			"nodes_retired:%d\nnodes_reclaimed:%d\nnodes_reused:%d\n"+
			"bytes_used:%d\nexpired_lazy:%d\nexpired_swept:%d\nevicted:%d\n",
		idx.Len(), idx.Shards(), idx.Buckets(), idx.Resizes(),
		retired, reclaimed, reused,
		s.st.BytesUsed(), lazy, swept, evicted)
	if s.sorted != nil {
		prefix += "ordered:1\n"
	}
	return prefix
}
