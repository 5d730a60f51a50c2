package skiplist

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/internal/core"
	"github.com/optik-go/optik/internal/rng"
)

// box is the pointer value word of the Write tests; Keep dereferences it.
type box struct{ v uint64 }

// builds counts boxBuild calls.
var builds atomic.Int64

// sameBox keeps a value that already holds p.Aux.
func sameBox(old *box, p ds.Put[*box]) bool { return old.v == uint64(p.Aux) }

func boxBuild(p ds.Put[*box]) *box {
	builds.Add(1)
	return &box{v: uint64(p.Aux)}
}

// restate is the Put of value v: kept where the key already holds v.
func restate(v uint64) ds.Put[*box] {
	return ds.Put[*box]{Keep: sameBox, Build: boxBuild, Aux: int64(v)}
}

// nodeOf returns key's level-0 node, or nil.
func nodeOf(l *Optik[*box], key uint64) *oNode[*box] {
	for cur := l.head.at(0).Load(); cur != l.tail; cur = cur.at(0).Load() {
		if cur.key == key {
			return cur
		}
	}
	return nil
}

// TestOptikWriteKeptLeavesVersion pins what an elided write is: a Write
// whose Keep holds returns the present value as both old and val, builds
// nothing and leaves the tower's version exactly as it was, so a reader's
// snapshot taken before it still validates after it. A Write of another
// value builds once, stores under the tower lock, and moves the version.
func TestOptikWriteKeptLeavesVersion(t *testing.T) {
	l := NewOptikOf[*box]()
	for k := uint64(1); k <= 16; k++ {
		if _, _, replaced := l.Write(k, restate(k)); replaced {
			t.Fatalf("Write(%d) into an empty list replaced", k)
		}
	}
	const key = 8
	n := nodeOf(l, key)
	present := core.LoadWord(&n.val)
	before := builds.Load()
	snap := n.lock.GetVersion()
	old, val, replaced := l.Write(key, restate(key))
	if !replaced || old != present || val != present {
		t.Fatalf("restating Write = %p,%p,%v; want the present %p twice, true", old, val, replaced, present)
	}
	if got := builds.Load() - before; got != 0 {
		t.Fatalf("restating Write built %d values", got)
	}
	if !n.lock.GetVersion().Same(snap) || !n.lock.TryLockVersion(snap) {
		t.Fatal("restating Write moved the tower's version: a reader's snapshot no longer validates")
	}
	n.lock.Revert()

	old, val, replaced = l.Write(key, restate(key+100))
	if !replaced || old != present || val == present || val.v != key+100 {
		t.Fatalf("Write of a new value = %p,%+v,%v; want %p, a new box, true", old, val, replaced, present)
	}
	if got := builds.Load() - before; got != 1 {
		t.Fatalf("Write of a new value built %d values, want 1", got)
	}
	if n.lock.GetVersion().Same(snap) {
		t.Fatal("Write of a new value left the tower's version unchanged")
	}
}

// TestOptikWriteKeepSeesOnlyValidatedValues stages a delete in the window
// between Write's parse finding its key unmarked and the load of the value
// Keep judges, through testHookWriteHit. A deleted tower keeps its value
// word frozen at the value being restated, so only validation tells the
// write its key is gone: the tower's version moved (the marked tag is part
// of it), the write re-parses, waits out any unlink still in flight and
// inserts. Two deletes are staged: one that completes inside the window,
// and one left mid-unlink — marked, still linked at every level — until a
// helper finishes it. Judged before validation, both keep the frozen value
// and report the key replaced while it is gone.
func TestOptikWriteKeepSeesOnlyValidatedValues(t *testing.T) {
	const key = 50
	for _, midUnlink := range []bool{false, true} {
		l := NewOptikOf[*box]()
		for _, k := range []uint64{key - 1, key, key + 1} {
			l.Write(k, restate(k))
		}
		fired := false
		done := make(chan struct{})
		testHookWriteHit = func() {
			if fired {
				return
			}
			fired = true
			if !midUnlink {
				if _, ok := l.Delete(key); !ok {
					t.Error("Delete inside the hook missed")
				}
				close(done)
				return
			}
			// A delete's first half: the victim locked for good and marked
			// (the linearization point). The unlink follows later.
			victim := nodeOf(l, key)
			if !victim.lock.TryLockVersion(victim.lock.GetVersion()) {
				t.Error("could not lock the victim")
			}
			victim.lock.SetTags(markedTag)
			go func() {
				defer close(done)
				time.Sleep(10 * time.Millisecond)
				for level := victim.height() - 1; level >= 0; level-- {
					pred := l.head
					for pred.at(level).Load() != victim {
						pred = pred.at(level).Load()
					}
					pred.at(level).Store(victim.at(level).Load())
				}
			}()
		}
		_, val, replaced := l.Write(key, restate(key))
		testHookWriteHit = nil
		<-done
		if !fired {
			t.Fatalf("midUnlink=%v: hook never fired", midUnlink)
		}
		if replaced {
			t.Fatalf("midUnlink=%v: Write kept a value its key no longer held", midUnlink)
		}
		if got, ok := l.Search(key); !ok || got != val || got.v != key {
			t.Fatalf("midUnlink=%v: Search = %+v,%v after the write; want its new box", midUnlink, got, ok)
		}
		if got := l.Len(); got != 3 {
			t.Fatalf("midUnlink=%v: Len = %d, want 3", midUnlink, got)
		}
	}
}

// TestOptikWriteRestatesRaceDeletes runs restating writes against deletes
// and stored writes of the same few keys, so restating writes meet towers
// mid-unlink and towers mid-insert. Every kept value must hold what was
// written, and inserts minus deletes must equal what is left.
func TestOptikWriteRestatesRaceDeletes(t *testing.T) {
	l := NewOptikOf[*box]()
	const keys, workers = 12, 4
	iters := 20000
	if testing.Short() {
		iters = 4000
	}
	var net atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.NewXorshift(seed)
			for i := 0; i < iters; i++ {
				k := r.Intn(keys) + 1
				p := restate(k)
				switch r.Intn(4) {
				case 0:
					if _, ok := l.Delete(k); ok {
						net.Add(-1)
					}
					continue
				case 1:
					p.Keep = nil // stores a new box, never kept
				}
				old, val, replaced := l.Write(k, p)
				if !replaced {
					net.Add(1)
				} else if old == val && old.v != k {
					t.Errorf("Write(%d) kept a box of %d", k, old.v)
					return
				}
			}
		}(uint64(g + 1))
	}
	wg.Wait()
	present := 0
	for k := uint64(1); k <= keys; k++ {
		if v, ok := l.Search(k); ok {
			present++
			if v.v != k {
				t.Fatalf("Search(%d) = %+v", k, v)
			}
		}
	}
	if int64(present) != net.Load() || l.Len() != present {
		t.Fatalf("%d keys present, Len %d, inserts - deletes = %d", present, l.Len(), net.Load())
	}
}
