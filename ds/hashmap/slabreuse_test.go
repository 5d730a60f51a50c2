package hashmap

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/optik-go/optik/internal/core"
	"github.com/optik-go/optik/internal/rng"
)

// TestSlabReuseBasic pins the set semantics on both storage classes.
func TestSlabReuseBasic(t *testing.T) {
	m := NewSlabReuse(8)
	// Enough keys that several buckets spill into overflow chains.
	const n = 100
	for k := uint64(1); k <= n; k++ {
		if !m.Insert(k, k*3) {
			t.Fatalf("Insert(%d) failed", k)
		}
		if m.Insert(k, k) {
			t.Fatalf("duplicate Insert(%d) succeeded", k)
		}
	}
	if got := m.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	for k := uint64(1); k <= n; k++ {
		if v, ok := m.Search(k); !ok || v != k*3 {
			t.Fatalf("Search(%d) = %d,%v", k, v, ok)
		}
	}
	for k := uint64(1); k <= n; k += 2 {
		if v, ok := m.Delete(k); !ok || v != k*3 {
			t.Fatalf("Delete(%d) = %d,%v", k, v, ok)
		}
		if _, ok := m.Delete(k); ok {
			t.Fatalf("double Delete(%d) succeeded", k)
		}
	}
	for k := uint64(1); k <= n; k++ {
		_, ok := m.Search(k)
		if want := k%2 == 0; ok != want {
			t.Fatalf("Search(%d) = %v after deletes, want %v", k, ok, want)
		}
	}
}

// TestSlabReuseRecycles is the satellite's point: steady-state churn on
// the fixed table must retire chain nodes through qsbr and serve later
// chain allocations from the free list — the baseline-table reclamation
// the ROADMAP called for, isolated from any resize machinery.
func TestSlabReuseRecycles(t *testing.T) {
	const n = 4000
	m := NewSlabReuse(64) // load 62: nearly everything chains
	for cycle := 0; cycle < 3; cycle++ {
		for k := uint64(1); k <= n; k++ {
			m.Insert(k, k)
		}
		for k := uint64(1); k <= n; k++ {
			m.Delete(k)
		}
	}
	retired, reclaimed, reused := m.ReclaimStats()
	if retired == 0 || reclaimed == 0 || reused == 0 {
		t.Fatalf("reclamation dead: retired=%d reclaimed=%d reused=%d", retired, reclaimed, reused)
	}
	if reused < retired/8 {
		t.Fatalf("reuse is marginal: %d reused of %d retired", reused, retired)
	}
	t.Logf("reclamation: %d retired, %d reclaimed, %d reused", retired, reclaimed, reused)
}

// TestSlabReuseChainHitValidates stages the retire-and-recycle window on
// the fixed table exactly as the Resizable white-box test does: the value
// read of a chain hit must be discarded when the bucket version moved,
// because the matched node may belong to its next owner already.
func TestSlabReuseChainHitValidates(t *testing.T) {
	m := NewSlabReuse(8)
	keys := make([]uint64, 0, inlinePairs+2)
	for k := uint64(1); len(keys) < cap(keys); k++ {
		if bucketIndex(k, len(m.buckets)) == 0 {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		m.Insert(k, k*10)
	}
	target := keys[len(keys)-1]
	b := &m.buckets[0]
	var nd *node[uint64]
	for cur := b.head.Load(); cur != nil; cur = cur.next.Load() {
		if cur.key.Load() == target {
			nd = cur
			break
		}
	}
	if nd == nil {
		t.Fatalf("key %d not in the overflow chain", target)
	}
	// Resizable's hook fires on its Search only; SlabReuse shares the
	// window, so stage it directly: deleting bumps the version (real
	// retirement), then the rewrite simulates the next owner.
	if _, ok := m.Delete(target); !ok {
		t.Fatalf("Delete(%d) failed", target)
	}
	nd.key.Store(keys[0])
	core.StoreWord(&nd.val, 424242)
	if v, ok := m.Search(target); ok {
		t.Fatalf("Search(%d) = %d,true after retire+recycle; want miss", target, v)
	}
	for _, k := range keys[:len(keys)-1] {
		if v, ok := m.Search(k); !ok || v != k*10 {
			t.Fatalf("Search(%d) = %d,%v after recycle", k, v, ok)
		}
	}
}

// TestSlabReuseConcurrentConservation hammers the recycling table under
// the race detector: exact conservation plus live reclamation.
func TestSlabReuseConcurrentConservation(t *testing.T) {
	const workers = 8
	iters := 30000
	if testing.Short() {
		iters = 8000
	}
	m := NewSlabReuse(32) // heavy chaining: the recycle paths stay hot
	var net atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.NewXorshift(seed)
			for i := 0; i < iters; i++ {
				key := r.Intn(2048) + 1
				switch r.Intn(3) {
				case 0:
					if m.Insert(key, key) {
						net.Add(1)
					}
				case 1:
					if _, ok := m.Delete(key); ok {
						net.Add(-1)
					}
				default:
					m.Search(key)
				}
			}
		}(uint64(g + 1))
	}
	wg.Wait()
	if got, want := int64(m.Len()), net.Load(); got != want {
		t.Fatalf("Len = %d, net = %d", got, want)
	}
	retired, _, _ := m.ReclaimStats()
	if retired == 0 {
		t.Fatal("concurrent churn retired nothing")
	}
}
