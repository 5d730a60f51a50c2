package hashmap

import "testing"

// TestDenseKeysStayInline places the dense keys 1..2n into n buckets
// through rtable.index — two keys per bucket on average, the load a table
// reaches just before it grows — for every n from 2^10 to 2^21, and
// requires at most 1 % of the keys past a bucket's inline pairs and no
// bucket above 6 keys. Dense integer keys are what a served store holds
// (counters, row ids), so a placement that clusters them sends the hot
// path into the overflow chains. Placing by bits 32 and up of the
// Fibonacci product, as the table once did, puts 81 % of the keys past
// the inline pairs at 2^16 buckets, 19 in the fullest bucket.
func TestDenseKeysStayInline(t *testing.T) {
	for shift := 10; shift <= 21; shift++ {
		n := 1 << shift
		tbl := &rtable[uint64]{mask: uint64(n - 1)}
		counts := make([]uint8, n)
		for k := uint64(1); k <= uint64(2*n); k++ {
			counts[tbl.index(k)]++
		}
		spilled, fullest := 0, 0
		for _, c := range counts {
			if c > inlinePairs {
				spilled += int(c) - inlinePairs
			}
			fullest = max(fullest, int(c))
		}
		if share := float64(spilled) / float64(2*n); share > 0.01 || fullest > 6 {
			t.Errorf("%d buckets: %.1f%% of keys 1..%d past the inline pairs, fullest bucket %d keys; want <= 1%% and <= 6",
				n, 100*share, 2*n, fullest)
		}
	}
}
