package skiplist

import (
	"sync"
	"testing"

	"github.com/optik-go/optik/internal/rng"
)

// benchKeys is the population of the skip-list benchmarks: 1 M towers,
// ~36 MB of nodes, well past the per-core caches, so a descent misses in
// cache as it does under ordered_scan.
const benchKeys = 1 << 20

var (
	benchListOnce sync.Once
	benchList     *Optik[uint64]
)

// sharedBenchList returns one optik2 list holding keys 1..benchKeys, built
// once per process. The keys go in ascending order, as ordered_scan preloads its
// store, so the towers of neighbouring keys sit side by side in memory and
// a node's size decides how many of them a cache line holds.
func sharedBenchList() *Optik[uint64] {
	benchListOnce.Do(func() {
		benchList = NewOptik2()
		for k := uint64(1); k <= benchKeys; k++ {
			benchList.Insert(k, k)
		}
	})
	return benchList
}

// BenchmarkOptikSearch times one Search for a present key, drawn uniformly:
// the descent from head that every point op of the ordered store pays.
func BenchmarkOptikSearch(b *testing.B) {
	s := sharedBenchList()
	r := rng.NewXorshift(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := r.Intn(benchKeys) + 1
		if v, ok := s.Search(k); !ok || v != k {
			b.Fatalf("Search(%d) = %d, %v", k, v, ok)
		}
	}
}

// BenchmarkOptikScanRange times one ScanRange of 100 keys from a uniformly
// drawn start, into reused pages: one descent plus a level-0 walk, the
// skip list's share of a RANGE-of-100.
func BenchmarkOptikScanRange(b *testing.B) {
	const page = 100
	s := sharedBenchList()
	r := rng.NewXorshift(1)
	keys := make([]uint64, page)
	vals := make([]uint64, page)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := r.Intn(benchKeys-page) + 1
		if n := s.ScanRange(from, from+page-1, keys, vals); n != page {
			b.Fatalf("ScanRange(%d, %d) returned %d entries, want %d", from, from+page-1, n, page)
		}
	}
}
