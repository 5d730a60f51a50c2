package skiplist

import (
	"sync"
	"testing"
	"testing/quick"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/internal/rng"
)

// towerChecker verifies structural invariants of a quiesced skip list:
// every level sorted strictly ascending, every level-l chain a subsequence
// of the level-(l-1) chain, and every unmarked level-0 node reachable at
// all levels up to its top.
func checkHerlihyTowers(t *testing.T, head, tail *hNode) {
	t.Helper()
	var chains [MaxLevel][]uint64
	for l := 0; l < MaxLevel; l++ {
		prev := uint64(0)
		for cur := head.at(l).Load(); cur != tail; cur = cur.at(l).Load() {
			if cur.key <= prev {
				t.Fatalf("level %d not strictly sorted: %d after %d", l, cur.key, prev)
			}
			prev = cur.key
			chains[l] = append(chains[l], cur.key)
			if l >= cur.topLevel {
				t.Fatalf("node %d linked at level %d above its top %d", cur.key, l, cur.topLevel)
			}
		}
	}
	// Subsequence property.
	for l := 1; l < MaxLevel; l++ {
		lower := map[uint64]bool{}
		for _, k := range chains[l-1] {
			lower[k] = true
		}
		for _, k := range chains[l] {
			if !lower[k] {
				t.Fatalf("key %d at level %d missing from level %d", k, l, l-1)
			}
		}
	}
	// Tower completeness.
	count := map[uint64]int{}
	for l := 0; l < MaxLevel; l++ {
		for _, k := range chains[l] {
			count[k]++
		}
	}
	for cur := head.at(0).Load(); cur != tail; cur = cur.at(0).Load() {
		if cur.marked.Load() {
			continue
		}
		if count[cur.key] != cur.topLevel {
			t.Fatalf("node %d linked at %d levels, top is %d", cur.key, count[cur.key], cur.topLevel)
		}
	}
}

func TestHerlihyTowerInvariantsAfterChurn(t *testing.T) {
	s := NewHerlihy()
	churnSet(t, s)
	checkHerlihyTowers(t, s.head, s.tail)
}

func checkOptikTowers[V comparable](t *testing.T, s *Optik[V]) {
	t.Helper()
	var chains [MaxLevel][]uint64
	for l := 0; l < MaxLevel; l++ {
		prev := uint64(0)
		for cur := s.head.at(l).Load(); cur != s.tail; cur = cur.at(l).Load() {
			if cur.key <= prev {
				t.Fatalf("level %d not strictly sorted: %d after %d", l, cur.key, prev)
			}
			prev = cur.key
			chains[l] = append(chains[l], cur.key)
			if l >= cur.topLevel {
				t.Fatalf("node %d linked at level %d above its top %d", cur.key, l, cur.topLevel)
			}
		}
	}
	for l := 1; l < MaxLevel; l++ {
		lower := map[uint64]bool{}
		for _, k := range chains[l-1] {
			lower[k] = true
		}
		for _, k := range chains[l] {
			if !lower[k] {
				t.Fatalf("key %d at level %d missing from level %d", k, l, l-1)
			}
		}
	}
}

func TestOptikTowerInvariantsAfterChurn(t *testing.T) {
	for name, mk := range map[string]func() *Optik[uint64]{
		"optik1": NewOptik1,
		"optik2": NewOptik2,
	} {
		t.Run(name, func(t *testing.T) {
			s := mk()
			churnSet(t, s)
			checkOptikTowers(t, s)
		})
	}
}

func TestFraserChainInvariantsAfterChurn(t *testing.T) {
	s := NewFraser()
	churnSet(t, s)
	// Level chains sorted, and unmarked level-l nodes present at l-1.
	var chains [MaxLevel][]uint64
	for l := 0; l < MaxLevel; l++ {
		prev := uint64(0)
		for cur := s.head.at(l).Load().node; cur != s.tail; {
			ref := cur.at(l).Load()
			if !ref.marked {
				if cur.key <= prev {
					t.Fatalf("level %d unmarked chain not sorted: %d after %d", l, cur.key, prev)
				}
				prev = cur.key
				chains[l] = append(chains[l], cur.key)
			}
			cur = ref.node
		}
	}
	for l := 1; l < MaxLevel; l++ {
		lower := map[uint64]bool{}
		for _, k := range chains[l-1] {
			lower[k] = true
		}
		for _, k := range chains[l] {
			if !lower[k] {
				t.Fatalf("key %d at level %d missing from level %d", k, l, l-1)
			}
		}
	}
}

// churnSet hammers s concurrently, then quiesces.
func churnSet(t *testing.T, s ds.Set) {
	t.Helper()
	const goroutines, iters = 8, 3000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.NewXorshift(seed)
			for i := 0; i < iters; i++ {
				key := r.Intn(256) + 1
				switch r.Intn(3) {
				case 0:
					s.Insert(key, key)
				case 1:
					s.Delete(key)
				default:
					s.Search(key)
				}
			}
		}(uint64(g + 1))
	}
	wg.Wait()
}

func TestQuickSequentialEquivalence(t *testing.T) {
	// Property: any op sequence on the skip list matches a map model.
	for name, mk := range map[string]func() ds.Set{
		"herlihy":    func() ds.Set { return NewHerlihy() },
		"herl-optik": func() ds.Set { return NewHerlihyOptik() },
		"fraser":     func() ds.Set { return NewFraser() },
		"optik2":     func() ds.Set { return NewOptik2() },
	} {
		t.Run(name, func(t *testing.T) {
			f := func(ops []uint16) bool {
				s := mk()
				model := map[uint64]uint64{}
				for _, raw := range ops {
					key := uint64(raw%32) + 1
					switch (raw / 32) % 3 {
					case 0:
						got := s.Insert(key, key*3)
						_, present := model[key]
						if got == present {
							return false
						}
						if got {
							model[key] = key * 3
						}
					case 1:
						gotV, got := s.Delete(key)
						wantV, want := model[key]
						if got != want || (got && gotV != wantV) {
							return false
						}
						delete(model, key)
					default:
						gotV, got := s.Search(key)
						wantV, want := model[key]
						if got != want || (got && gotV != wantV) {
							return false
						}
					}
				}
				return s.Len() == len(model)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
