package hashmap

import (
	"runtime"
	"testing"

	"github.com/optik-go/optik/internal/core"
	"github.com/optik-go/optik/internal/rng"
)

// TestSweepLapAcrossResize pins the sweep cursor's promise: a lap started
// on a small slab, carried through a grow to many times the size and a
// shrink to a fraction of that, with Quiesce between cursor steps (so each
// step sees a different, settled slab), returns every key present for the
// whole lap at least once. Pages of four entries make the lap take many
// steps on every slab size.
func TestSweepLapAcrossResize(t *testing.T) {
	const stable, churn = 40, 4000
	m := NewResizable(16)
	for k := uint64(1); k <= stable; k++ {
		m.Insert(k, k)
	}
	seen := map[uint64]int{}
	keys, vals := make([]uint64, 4), make([]uint64, 4)
	cursor, steps := uint64(0), 0
	step := func() bool {
		m.Quiesce()
		n, next := m.Sweep(cursor, keys, vals)
		for i := 0; i < n; i++ {
			if keys[i] <= stable && vals[i] != keys[i] {
				t.Fatalf("sweep reported %d → %d", keys[i], vals[i])
			}
			seen[keys[i]]++
		}
		cursor, steps = next, steps+1
		return next != 0
	}
	for i := 0; i < 2; i++ {
		if !step() {
			t.Fatal("the lap ended on the small slab")
		}
	}
	small := m.Buckets()
	for k := uint64(stable + 1); k <= stable+churn; k++ {
		m.Insert(k, k)
	}
	for i := 0; i < 3 && step(); i++ {
	}
	grown := m.Buckets()
	for k := uint64(stable + 1); k <= stable+churn; k++ {
		m.Delete(k)
	}
	for step() {
	}
	if shrunk := m.Buckets(); grown < 8*small || 4*shrunk > grown {
		t.Fatalf("buckets %d → %d → %d: the lap did not cross a grow and a shrink", small, grown, shrunk)
	}
	for k := uint64(1); k <= stable; k++ {
		if seen[k] == 0 {
			t.Errorf("key %d, present for the whole lap, was never returned (%d steps)", k, steps)
		}
	}
}

// TestSampleNearUniform pins the sampler's uniformity: over 10⁶ probes of
// a 10,000-key table every key is reported within 2× of its fair share.
func TestSampleNearUniform(t *testing.T) {
	const keys, probes = 10_000, 1_000_000
	m := NewResizable(1)
	r := rng.NewXorshift(7)
	for m.Len() < keys {
		k := r.Intn(1<<62) + 1
		m.Insert(k, k)
	}
	m.Quiesce()
	count := make(map[uint64]int, keys)
	total := 0
	for i := 0; i < probes; i++ {
		ks, vals, n := m.Sample(r.Next())
		for j, k := range ks[:n] {
			if vals[j] != k {
				t.Fatalf("sample reported %d → %d", k, vals[j])
			}
			count[k]++
		}
		total += n
	}
	fair := float64(total) / keys
	lo, hi := probes, 0
	for k, c := range count {
		if float64(c) < fair/2 || float64(c) > 2*fair {
			t.Errorf("key %d drawn %d times, fair share %.0f", k, c, fair)
		}
		lo, hi = min(lo, c), max(hi, c)
	}
	if len(count) != keys {
		t.Errorf("%d of %d keys never drawn", keys-len(count), keys)
	}
	t.Logf("%d buckets, %.2f entries per probe; draws per key %d..%d, fair %.0f",
		m.Buckets(), float64(total)/probes, lo, hi, fair)
}

// TestPaddedSlabKeepsValues forces newBucketSlab's padded fallback — the
// reflect-built struct that puts a 9–511-bucket slab on a cache line — on
// a pointer value word, makes the slab the only reference to the values,
// collects, recycles the freed memory, and reads every value back: the
// struct's pointer map must cover every inline slot and the chain head,
// or the collector frees what the table still maps.
func TestPaddedSlabKeepsValues(t *testing.T) {
	type payload [8]uint64
	const n = 100
	slab := paddedBucketSlab[*payload](n)
	if slab == nil {
		t.Skip("no pad aligns the slab on this allocator")
	}
	mark := func(i, j int) payload {
		var p payload
		for w := range p {
			p[w] = uint64(i*1000 + j*10 + w)
		}
		return p
	}
	for i := range slab {
		for j := range slab[i].inline {
			p := mark(i, j)
			core.StoreWord(&slab[i].inline[j].val, &p)
		}
		nd := new(node[*payload])
		p := mark(i, inlinePairs)
		core.StoreWord(&nd.val, &p)
		slab[i].head.Store(nd)
	}
	runtime.GC()
	runtime.GC()
	var junk [][]uint64
	for i := 0; i < 50_000; i++ {
		b := make([]uint64, 8)
		for w := range b {
			b[w] = ^uint64(0)
		}
		junk = append(junk, b)
	}
	junk = nil
	for i := range slab {
		for j := range slab[i].inline {
			if got := core.LoadWord(&slab[i].inline[j].val); *got != mark(i, j) {
				t.Fatalf("bucket %d inline %d: value overwritten after a collection: %v", i, j, *got)
			}
		}
		if got := core.LoadWord(&slab[i].head.Load().val); *got != mark(i, inlinePairs) {
			t.Fatalf("bucket %d chain: value overwritten after a collection: %v", i, *got)
		}
	}
}
