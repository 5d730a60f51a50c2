package skiplist

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/internal/rng"
)

func variants() map[string]func() ds.Set {
	return map[string]func() ds.Set{
		"herlihy":    func() ds.Set { return NewHerlihy() },
		"herl-optik": func() ds.Set { return NewHerlihyOptik() },
		"fraser":     func() ds.Set { return NewFraser() },
		"optik1":     func() ds.Set { return NewOptik1() },
		"optik2":     func() ds.Set { return NewOptik2() },
	}
}

func TestRandomLevelDistribution(t *testing.T) {
	counts := make([]int, MaxLevel+1)
	const draws = 200000
	for i := 0; i < draws; i++ {
		l := randomLevel()
		if l < 1 || l > MaxLevel {
			t.Fatalf("level %d out of range", l)
		}
		counts[l]++
	}
	// Geometric p=1/4: level 1 about three in four, level 2 about 3/16...
	// The bands are ±0.05 around P(1) and ±20 % around P(2); p = 1/2's
	// 0.5 and 0.25 fall outside both.
	if f := float64(counts[1]) / draws; f < 0.70 || f > 0.80 {
		t.Fatalf("P(level=1) = %v, want ~0.75", f)
	}
	if f := float64(counts[2]) / draws; f < 0.15 || f > 0.225 {
		t.Fatalf("P(level=2) = %v, want ~0.1875", f)
	}
}

func TestSequentialSemantics(t *testing.T) {
	for name, mk := range variants() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			if _, ok := s.Search(5); ok {
				t.Fatal("found key in empty skip list")
			}
			if !s.Insert(5, 50) || s.Insert(5, 51) {
				t.Fatal("insert semantics broken")
			}
			if v, ok := s.Search(5); !ok || v != 50 {
				t.Fatalf("Search(5) = %v,%v", v, ok)
			}
			if !s.Insert(3, 30) || !s.Insert(7, 70) {
				t.Fatal("inserts failed")
			}
			if s.Len() != 3 {
				t.Fatalf("Len = %d", s.Len())
			}
			if v, ok := s.Delete(5); !ok || v != 50 {
				t.Fatalf("Delete(5) = %v,%v", v, ok)
			}
			if _, ok := s.Delete(5); ok {
				t.Fatal("double delete succeeded")
			}
			if _, ok := s.Search(5); ok {
				t.Fatal("deleted key still visible")
			}
			if s.Len() != 2 {
				t.Fatalf("Len = %d", s.Len())
			}
		})
	}
}

func TestAgainstModelSequential(t *testing.T) {
	for name, mk := range variants() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			model := map[uint64]uint64{}
			r := rng.NewXorshift(31)
			for i := 0; i < 30000; i++ {
				key := r.Intn(256) + 1
				switch r.Intn(3) {
				case 0:
					val := r.Next()
					got := s.Insert(key, val)
					_, present := model[key]
					if got == present {
						t.Fatalf("op %d: Insert(%d) = %v, present=%v", i, key, got, present)
					}
					if got {
						model[key] = val
					}
				case 1:
					gotV, got := s.Delete(key)
					wantV, want := model[key]
					if got != want || (got && gotV != wantV) {
						t.Fatalf("op %d: Delete(%d) = %v,%v want %v,%v", i, key, gotV, got, wantV, want)
					}
					delete(model, key)
				default:
					gotV, got := s.Search(key)
					wantV, want := model[key]
					if got != want || (got && gotV != wantV) {
						t.Fatalf("op %d: Search(%d) = %v,%v want %v,%v", i, key, gotV, got, wantV, want)
					}
				}
			}
			if s.Len() != len(model) {
				t.Fatalf("Len = %d, model = %d", s.Len(), len(model))
			}
		})
	}
}

func TestTallTowers(t *testing.T) {
	// Insert enough keys that multi-level towers certainly exist, then
	// check ordering queries from both ends of the key space.
	for name, mk := range variants() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			const n = 5000
			for k := uint64(1); k <= n; k++ {
				if !s.Insert(k, k*3) {
					t.Fatalf("insert %d failed", k)
				}
			}
			for _, k := range []uint64{1, 2, n / 2, n - 1, n} {
				if v, ok := s.Search(k); !ok || v != k*3 {
					t.Fatalf("Search(%d) = %v,%v", k, v, ok)
				}
			}
			if _, ok := s.Search(n + 1); ok {
				t.Fatal("phantom key")
			}
			for k := uint64(1); k <= n; k += 2 {
				if _, ok := s.Delete(k); !ok {
					t.Fatalf("delete %d failed", k)
				}
			}
			if s.Len() != n/2 {
				t.Fatalf("Len = %d, want %d", s.Len(), n/2)
			}
		})
	}
}

func TestConcurrentNetSize(t *testing.T) {
	for name, mk := range variants() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			const goroutines, iters = 8, 4000
			var net atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					r := rng.NewXorshift(seed)
					for i := 0; i < iters; i++ {
						key := r.Intn(128) + 1
						if r.Intn(2) == 0 {
							if s.Insert(key, key) {
								net.Add(1)
							}
						} else {
							if _, ok := s.Delete(key); ok {
								net.Add(-1)
							}
						}
					}
				}(uint64(g + 1))
			}
			wg.Wait()
			if int64(s.Len()) != net.Load() {
				t.Fatalf("Len = %d, net = %d", s.Len(), net.Load())
			}
		})
	}
}

func TestConcurrentDisjointRanges(t *testing.T) {
	for name, mk := range variants() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			const goroutines, span = 8, 512
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(id uint64) {
					defer wg.Done()
					base := id*span + 1
					model := map[uint64]uint64{}
					r := rng.NewXorshift(id + 1)
					for i := 0; i < 3000; i++ {
						key := base + r.Intn(span/2)
						switch r.Intn(3) {
						case 0:
							val := r.Next()
							got := s.Insert(key, val)
							_, present := model[key]
							if got == present {
								t.Errorf("Insert(%d) inconsistent", key)
								return
							}
							if got {
								model[key] = val
							}
						case 1:
							gotV, got := s.Delete(key)
							wantV, want := model[key]
							if got != want || (got && gotV != wantV) {
								t.Errorf("Delete(%d) inconsistent", key)
								return
							}
							delete(model, key)
						default:
							gotV, got := s.Search(key)
							wantV, want := model[key]
							if got != want || (got && gotV != wantV) {
								t.Errorf("Search(%d) = (%d,%v) want (%d,%v)", key, gotV, got, wantV, want)
								return
							}
						}
					}
				}(uint64(g))
			}
			wg.Wait()
		})
	}
}

func TestConcurrentSingleKeyContention(t *testing.T) {
	for name, mk := range variants() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			const goroutines, iters = 8, 2000
			const key = 99
			var net atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					r := rng.NewXorshift(seed)
					for i := 0; i < iters; i++ {
						if r.Intn(2) == 0 {
							if s.Insert(key, seed) {
								net.Add(1)
							}
						} else {
							if _, ok := s.Delete(key); ok {
								net.Add(-1)
							}
						}
					}
				}(uint64(g + 1))
			}
			wg.Wait()
			n := net.Load()
			if n != 0 && n != 1 {
				t.Fatalf("net = %d", n)
			}
			if int64(s.Len()) != n {
				t.Fatalf("Len = %d, net = %d", s.Len(), n)
			}
		})
	}
}

func TestValueIntegrityUnderChurn(t *testing.T) {
	for name, mk := range variants() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					r := rng.NewXorshift(seed)
					for {
						select {
						case <-stop:
							return
						default:
						}
						key := r.Intn(64) + 1
						if r.Intn(2) == 0 {
							s.Insert(key, key*13)
						} else {
							s.Delete(key)
						}
					}
				}(uint64(g + 1))
			}
			r := rng.NewXorshift(555)
			for i := 0; i < 20000; i++ {
				key := r.Intn(64) + 1
				if v, ok := s.Search(key); ok && v != key*13 {
					t.Errorf("foreign value %d under key %d", v, key)
					break
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}
