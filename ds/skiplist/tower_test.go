package skiplist

import (
	"runtime"
	"testing"
	"unsafe"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/internal/rng"
)

// sizeClass rounds n up to the Go allocator's small size classes (the part
// of runtime/sizeclasses.go a node can land in).
func sizeClass(n uintptr) uintptr {
	for _, c := range []uintptr{8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240, 256, 288, 320} {
		if n <= c {
			return c
		}
	}
	return n
}

// allocBytes reports the mean heap bytes and allocation count per call of f
// over n calls.
func allocBytes(n int, f func()) (bytes, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
		float64(after.Mallocs-before.Mallocs) / float64(n)
}

var towerSink any

// TestTowerAllocSize pins the layout's point: a node is ONE allocation of
// a 24-byte header + its own tower, not header + MaxLevel slots. Every
// height up to 8 costs exactly its size class — a height-1 tower the
// 32-byte class — and the rare taller ones (one in 65536) round up to
// MaxLevel. Fails at the embedded-array layout with 320 bytes per node,
// and at a 40-byte header with 48 bytes for a height-1 tower.
func TestTowerAllocSize(t *testing.T) {
	const slot = unsafe.Sizeof(uintptr(0))
	class := func(h int) int { // newTower's height classes
		for _, c := range []int{1, 2, 3, 4, 5, 6, 7, 8, MaxLevel} {
			if h <= c {
				return c
			}
		}
		panic("height above MaxLevel")
	}
	for _, nt := range []struct {
		name   string
		header uintptr
		alloc  func(h int) any
	}{
		{"oNode", unsafe.Sizeof(oNode[uint64]{}), func(h int) any { return newONode[uint64](1, h) }},
		{"hoNode", unsafe.Sizeof(hoNode{}), func(h int) any { return newHONode(1, 1, h) }},
		{"hNode", unsafe.Sizeof(hNode{}), func(h int) any { return newHNode(1, 1, h) }},
		{"fNode", unsafe.Sizeof(fNode{}), func(h int) any { return newFNode(1, 1, h) }},
	} {
		if nt.header != 24 {
			t.Errorf("%s header is %d bytes, want 24", nt.name, nt.header)
		}
		for h := 1; h <= MaxLevel; h++ {
			want := sizeClass(nt.header + slot*uintptr(class(h)))
			alloc := func() { towerSink = nt.alloc(h) }
			allocs := testing.AllocsPerRun(100, alloc)
			// One stray runtime allocation in 8192 moves the mean by well
			// under the byte of slack; a wrong size class moves it by 16.
			if bytes, _ := allocBytes(8192, alloc); allocs != 1 || bytes > float64(want)+1 {
				t.Errorf("%s height %d: %v allocations, %.1f bytes per node; want 1 and <= %d",
					nt.name, h, allocs, bytes, want)
			}
		}
	}
}

// TestTowerMeanNodeBytes pins the aggregate the benchmark's rss_peak_mb
// rides on: over 100 k inserts on a GC-backed list, one allocation per
// insert and a mean node of at most 37 bytes — the p = 1/4 mix of the
// 32/48/48/64/64/80/... classes behind a 24-byte header (3/4 of the nodes
// in the 32-byte class, 15/64 in the 48-byte one) reads ~36.3; p = 1/2
// read 42.8, a 40-byte header 58.8, and the embedded-array layout 320.
func TestTowerMeanNodeBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("300k inserts")
	}
	for name, s := range map[string]ds.Set{
		"optik2":     NewOptik2(),
		"herl-optik": NewHerlihyOptik(),
		"herlihy":    NewHerlihy(),
	} {
		key := uint64(0)
		insert := func() {
			key++
			s.Insert(key*2654435761%(1<<40)+1, key)
		}
		bytes, allocs := allocBytes(100_000, insert)
		t.Logf("%s: %.1f bytes per node", name, bytes)
		if allocs > 1.001 || bytes > 37 {
			t.Errorf("%s: %.3f allocations and %.1f bytes per insert; want 1 and <= 37", name, allocs, bytes)
		}
		if allocs := testing.AllocsPerRun(1000, insert); allocs != 1 {
			t.Errorf("%s: %v allocations per insert, want 1", name, allocs)
		}
	}
}

// churnGarbage allocates and scribbles over objects in the node size
// classes, both pointer-free and pointerful (nodes live in the latter's
// spans), so memory the collector wrongly freed gets reused and
// overwritten instead of lingering intact.
func churnGarbage() {
	var keep []any
	scribble := new(uint64)
	for round := 0; round < 4; round++ {
		keep = keep[:0]
		for i := 0; i < 50_000; i++ {
			words := make([]uint64, 4+i%37)
			for j := range words {
				words[j] = ^uint64(0) >> 1
			}
			ptrs := make([]*uint64, 4+i%37)
			for j := range ptrs {
				ptrs[j] = scribble
			}
			keep = append(keep, words, ptrs)
		}
	}
	towerSink = keep
	towerSink = nil
}

// TestTowerGCVisibility pins the exact-type argument: the forward slots
// live past the end of the declared node type, so they survive a
// collection only because each node is allocated as a Go type that
// includes them. Build a list, drop every reference but head, collect
// twice, recycle the freed memory, and walk every level: all keys are
// still there and every level-l chain holds exactly the towers taller
// than l. A list of 20 k keys rarely draws a tower above 8 levels, so
// the classes subtest covers every height, the MaxLevel class included:
// a node reachable only through the top slot of a tower of that height.
func TestTowerGCVisibility(t *testing.T) {
	t.Run("classes", func(t *testing.T) {
		var towers [MaxLevel]*oNode[uint64]
		for h := 1; h <= MaxLevel; h++ {
			top := newONode[uint64](uint64(h), h)
			top.at(h - 1).Store(newONode[uint64](1000+uint64(h), 1))
			towers[h-1] = top
		}
		runtime.GC()
		runtime.GC()
		churnGarbage()
		for h, top := range towers {
			if got := top.at(h).Load().key; got != 1000+uint64(h+1) {
				t.Errorf("height %d: the node behind the top slot holds key %d, want %d", h+1, got, 1000+h+1)
			}
		}
	})

	const n = 20_000
	fill := func(s ds.Set) {
		for k := uint64(1); k <= n; k++ {
			if !s.Insert(k*7919%n+1, k) {
				t.Fatalf("insert %d failed", k)
			}
		}
	}
	check := func(t *testing.T, walk func(level int, visit func(key uint64, height int))) {
		runtime.GC()
		runtime.GC()
		churnGarbage()
		var taller [MaxLevel + 1]int // taller[l] = towers with height > l
		next := uint64(1)
		walk(0, func(key uint64, height int) {
			if key != next {
				t.Fatalf("level 0: key %d where %d belongs", key, next)
			}
			next++
			for l := 0; l < height; l++ {
				taller[l]++
			}
		})
		if next != n+1 {
			t.Fatalf("level 0 holds %d keys, want %d", next-1, n)
		}
		for l := 1; l < MaxLevel; l++ {
			count, prev := 0, uint64(0)
			walk(l, func(key uint64, height int) {
				if key <= prev || height <= l {
					t.Fatalf("level %d: key %d (height %d) after %d", l, key, height, prev)
				}
				prev = key
				count++
			})
			if count != taller[l] {
				t.Fatalf("level %d holds %d towers, %d are tall enough", l, count, taller[l])
			}
		}
	}
	// Each variant builds and fills its list, keeps only head, and returns
	// the walk over one level's chain from it.
	type walkFn = func(level int, visit func(key uint64, height int))
	for name, build := range map[string]func() walkFn{
		"optik": func() walkFn {
			s := NewOptik2()
			fill(s)
			head := s.head
			return func(level int, visit func(uint64, int)) {
				for cur := head.at(level).Load(); cur.key != tailKey; cur = cur.at(level).Load() {
					visit(cur.key, cur.height())
				}
			}
		},
		"herl-optik": func() walkFn {
			s := NewHerlihyOptik()
			fill(s)
			head := s.head
			return func(level int, visit func(uint64, int)) {
				for cur := head.at(level).Load(); cur.key != tailKey; cur = cur.at(level).Load() {
					visit(cur.key, cur.height())
				}
			}
		},
		"herlihy": func() walkFn {
			s := NewHerlihy()
			fill(s)
			head := s.head
			return func(level int, visit func(uint64, int)) {
				for cur := head.at(level).Load(); cur.key != tailKey; cur = cur.at(level).Load() {
					visit(cur.key, cur.height())
				}
			}
		},
		"fraser": func() walkFn {
			s := NewFraser()
			fill(s)
			head := s.head
			return func(level int, visit func(uint64, int)) {
				for cur := head.at(level).Load().node; cur.key != tailKey; cur = cur.at(level).Load().node {
					visit(cur.key, cur.topLevel)
				}
			}
		},
	} {
		t.Run(name, func(t *testing.T) { check(t, build()) })
	}
}

// TestTowerHeightsStayGeometricUnderChurn pins the level distribution
// under sustained delete/insert churn: every insert draws a fresh tower,
// so after a million churn operations the level occupancy is still
// geometric — about n/4^l towers linked at level l — and no deletion
// pattern skews it. Levels 0–4 expect at least 1024 towers each, so
// ±15 % is about five standard deviations; level 5 expects only 256.
func TestTowerHeightsStayGeometricUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-operation churn")
	}
	const n, churn = 1 << 18, 1_000_000
	s := NewOptik2()
	r := rng.NewXorshift(42)
	live := make([]uint64, 0, n)
	insert := func() {
		for {
			k := r.Intn(1<<40) + 1
			if s.Insert(k, k) {
				live = append(live, k)
				return
			}
		}
	}
	for len(live) < n {
		insert()
	}
	for i := 0; i < churn/2; i++ {
		j := int(r.Intn(uint64(len(live))))
		if _, ok := s.Delete(live[j]); !ok {
			t.Fatalf("delete of live key %d missed", live[j])
		}
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
		insert()
	}
	checkOptikTowers(t, s)
	var linked [MaxLevel]int
	for cur := s.head.at(0).Load(); cur != s.tail; cur = cur.at(0).Load() {
		for l := 0; l < cur.height(); l++ {
			linked[l]++
		}
	}
	for l := 0; l <= 4; l++ {
		want := float64(n) / float64(uint(1)<<(2*l))
		if got := float64(linked[l]); got < 0.85*want || got > 1.15*want {
			t.Errorf("level %d links %d towers, want %.0f ± 15%%", l, linked[l], want)
		}
	}
}
