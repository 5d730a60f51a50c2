package skiplist

import (
	"runtime"
	"testing"
	"unsafe"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/internal/core"
	"github.com/optik-go/optik/internal/qsbr"
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
// 32-byte class — and the rare taller ones round up to the next height
// class. Fails at the embedded-array layout with 320 bytes per node, and
// at a 40-byte header with 48 bytes for a height-1 tower.
func TestTowerAllocSize(t *testing.T) {
	const slot = unsafe.Sizeof(uintptr(0))
	class := func(h int) int { // newTower's height classes
		for _, c := range []int{1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24, MaxLevel} {
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
// insert and a mean node of at most 44 bytes — the geometric mix of the
// 32/48/48/64/64/80/... classes behind a 24-byte header reads ~42.7; a
// 40-byte header read 58.8, and the embedded-array layout paid 320.
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
		if allocs > 1.001 || bytes > 44 {
			t.Errorf("%s: %.3f allocations and %.1f bytes per insert; want 1 and <= 44", name, allocs, bytes)
		}
		if allocs := testing.AllocsPerRun(1000, insert); allocs != 1 {
			t.Errorf("%s: %v allocations per insert, want 1", name, allocs)
		}
	}
}

// churnGarbage allocates and scribbles over objects in the node size
// classes, so memory the collector wrongly freed gets reused and
// overwritten instead of lingering intact.
func churnGarbage() {
	var keep [][]uint64
	for round := 0; round < 4; round++ {
		keep = keep[:0]
		for i := 0; i < 50_000; i++ {
			junk := make([]uint64, 4+i%37)
			for j := range junk {
				junk[j] = ^uint64(0) >> 1
			}
			keep = append(keep, junk)
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
// than l.
func TestTowerGCVisibility(t *testing.T) {
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

// TestTowerRecycledHeightsStayGeometric pins the recycling argument: a
// tower handed back by the free list keeps the height it was born with and
// the insert adopts it as its level draw, so after a million churn
// operations — nearly all of them served by recycled towers — the level
// occupancy is still geometric: about n/2^l towers linked at level l.
func TestTowerRecycledHeightsStayGeometric(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-operation churn")
	}
	const n, churn = 1 << 18, 1_000_000
	s := NewOptikPool[uint64](qsbr.NewPool(qsbr.NewDomain(), 0))
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
	retired0, _, reused0 := s.ReclaimStats()
	for i := 0; i < churn/2; i++ {
		j := int(r.Intn(uint64(len(live))))
		if _, ok := s.Delete(live[j]); !ok {
			t.Fatalf("delete of live key %d missed", live[j])
		}
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
		insert()
	}
	retired, _, reused := s.ReclaimStats()
	if share := float64(reused-reused0) / float64(retired-retired0); share <= 0.9 {
		t.Errorf("reuse share %.3f over the churn, want > 0.9", share)
	}
	checkOptikTowers(t, s)
	var linked [MaxLevel]int
	for cur := s.head.at(0).Load(); cur != s.tail; cur = cur.at(0).Load() {
		for l := 0; l < cur.height(); l++ {
			linked[l]++
		}
	}
	for l := 0; l <= 8; l++ {
		want := float64(n) / float64(uint(1)<<l)
		if got := float64(linked[l]); got < 0.85*want || got > 1.15*want {
			t.Errorf("level %d links %d towers, want %.0f ± 15%%", l, linked[l], want)
		}
	}
}

// TestTowerRecycledTowersBornAgain pins what a tower handed out by the free
// list must be: 100 k keys are inserted and deleted, their towers
// reclaimed, and 100 k new keys inserted through them. Every new key is
// found, its tower unmarked, linked, free and exactly as tall as it was
// born, and no version snapshot from the tower's previous life validates
// against it. The keys are replaced in rounds that fit one handle's free
// list, highest round first and descending within it, so every new key's
// predecessors are old towers or head: no insert locks a recycled tower,
// whose version is then its reissue plus its own linked tag — and a
// reissue that did not advance the counter would hand the old snapshot
// back.
func TestTowerRecycledTowersBornAgain(t *testing.T) {
	n := uint64(100_000)
	if testing.Short() {
		n = 10_000
	}
	s := NewOptikPool[uint64](qsbr.NewPool(qsbr.NewDomain(), 0))
	type life struct {
		height int
		last   core.Version // the tower's version while it held its first key
	}
	born := make(map[*oNode[uint64]]life, n)
	for k := uint64(1); k <= n; k++ {
		s.Insert(2*k, k)
	}
	for cur := s.head.at(0).Load(); cur != s.tail; cur = cur.at(0).Load() {
		born[cur] = life{cur.height(), cur.lock.GetVersion()}
	}
	const round = 8192 // below qsbr's per-handle free-list cap
	for hi := n; hi >= 1; hi -= min(hi, round) {
		lo := hi - min(hi, round) + 1
		for k := lo; k <= hi; k++ {
			if _, ok := s.Delete(2 * k); !ok {
				t.Fatalf("delete of key %d missed", 2*k)
			}
		}
		s.Pool().Sweep()
		for k := hi; k >= lo; k-- {
			if !s.Insert(2*k+1, k) {
				t.Fatalf("insert of key %d failed", 2*k+1)
			}
		}
	}
	recycled := uint64(0)
	for cur := s.head.at(0).Load(); cur != s.tail; cur = cur.at(0).Load() {
		if v, ok := s.Search(cur.key); !ok || v != cur.key/2 {
			t.Fatalf("key %d: Search = %d, %v", cur.key, v, ok)
		}
		v := cur.lock.GetVersion()
		if v.IsLocked() || v.Tags()&(markedTag|linkedTag) != linkedTag {
			t.Fatalf("key %d: tower word %#x, want free, linked and unmarked", cur.key, uint64(v))
		}
		prev, ok := born[cur]
		if !ok {
			continue
		}
		recycled++
		if h := cur.height(); h != prev.height {
			t.Fatalf("key %d: recycled tower is %d levels, born with %d", cur.key, h, prev.height)
		}
		if cur.lock.TryLockVersion(prev.last) {
			cur.lock.Unlock()
			t.Fatalf("key %d: a snapshot from the tower's previous life validated", cur.key)
		}
	}
	if recycled < n*9/10 {
		t.Errorf("%d of %d inserts reused a tower, want > 90%%", recycled, n)
	}
	checkOptikTowers(t, s)
}
