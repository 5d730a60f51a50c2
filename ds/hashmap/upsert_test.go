package hashmap

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/optik-go/optik/internal/rng"
)

// TestUpsertSemantics pins the contract on both storage classes: a fresh
// key inserts (old = 0, replaced = false), an existing key replaces in
// place and returns the previous value, and a replacement moves neither
// Len nor the thresholds.
func TestUpsertSemantics(t *testing.T) {
	m := NewResizable(8)
	rt := m.root.Load()
	keys := chainKeys(rt, inlinePairs+3) // first 3 inline, rest chained
	for i, k := range keys {
		if old, replaced := m.Upsert(k, uint64(i+1)); replaced || old != 0 {
			t.Fatalf("Upsert(%d) fresh = %d,%v; want 0,false", k, old, replaced)
		}
	}
	if got := m.Len(); got != len(keys) {
		t.Fatalf("Len = %d, want %d", got, len(keys))
	}
	for i, k := range keys {
		if old, replaced := m.Upsert(k, uint64(i+1)*100); !replaced || old != uint64(i+1) {
			t.Fatalf("Upsert(%d) replace = %d,%v; want %d,true", k, old, replaced, i+1)
		}
	}
	if got := m.Len(); got != len(keys) {
		t.Fatalf("Len = %d after replacements, want %d", got, len(keys))
	}
	for i, k := range keys {
		if v, ok := m.Search(k); !ok || v != uint64(i+1)*100 {
			t.Fatalf("Search(%d) = %d,%v; want %d,true", k, v, ok, (i+1)*100)
		}
	}
	resizesBefore := m.Resizes()
	for rep := 0; rep < 1000; rep++ {
		m.Upsert(keys[0], uint64(rep))
	}
	if got := m.Resizes(); got != resizesBefore {
		t.Fatalf("replacements triggered %d resizes", got-resizesBefore)
	}
}

// TestUpsertAcrossResize drives upserts through live migrations: values
// written before, during and after a grow must all be the last ones
// written, whichever slab the key lived in at the time.
func TestUpsertAcrossResize(t *testing.T) {
	m := NewResizable(2)
	const n = 20000
	for k := uint64(1); k <= n; k++ {
		m.Upsert(k, k)
	}
	for k := uint64(1); k <= n; k++ {
		if old, replaced := m.Upsert(k, k*7); !replaced || old != k {
			t.Fatalf("Upsert(%d) = %d,%v mid-growth; want %d,true", k, old, replaced, k)
		}
	}
	m.Quiesce()
	for k := uint64(1); k <= n; k++ {
		if v, ok := m.Search(k); !ok || v != k*7 {
			t.Fatalf("Search(%d) = %d,%v; want %d,true", k, v, ok, k*7)
		}
	}
	if got := m.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
}

// TestUpsertConcurrentConservation hammers Upsert/Delete from many
// goroutines: the net of fresh inserts minus successful deletes must equal
// the final Len, and every surviving value must be one some writer wrote.
func TestUpsertConcurrentConservation(t *testing.T) {
	const workers = 8
	iters := 30000
	if testing.Short() {
		iters = 8000
	}
	m := NewResizable(16)
	var net atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.NewXorshift(seed)
			for i := 0; i < iters; i++ {
				key := r.Intn(4096) + 1
				switch r.Intn(3) {
				case 0:
					if _, replaced := m.Upsert(key, key*10+seed); !replaced {
						net.Add(1)
					}
				case 1:
					if m.Insert(key, key*10+seed) {
						net.Add(1)
					}
				default:
					if _, ok := m.Delete(key); ok {
						net.Add(-1)
					}
				}
			}
		}(uint64(g + 1))
	}
	wg.Wait()
	m.Quiesce()
	if got, want := int64(m.Len()), net.Load(); got != want {
		t.Fatalf("Len = %d, net = %d", got, want)
	}
	m.checkMigrationState(t)
}
