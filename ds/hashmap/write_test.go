package hashmap

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/internal/core"
	"github.com/optik-go/optik/internal/rng"
)

// box is the pointer value word of the Write tests: Keep dereferences it,
// so a Keep handed a slot a delete has cleared (a nil word) panics.
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

// TestWriteKeptLeavesVersion pins what an elided write is on both storage
// classes: a Write whose Keep holds returns the present value as both old
// and val, builds nothing, and leaves the bucket's version exactly as it
// was, so a reader's snapshot taken before it still validates after it.
// A Write of another value builds once, stores, and moves the version.
func TestWriteKeptLeavesVersion(t *testing.T) {
	m := NewResizableOf[*box](8)
	rt := m.root.Load()
	keys := chainKeys(rt, inlinePairs+2) // the last two are chained
	for _, k := range keys {
		if _, _, replaced := m.Write(k, restate(k)); replaced {
			t.Fatalf("Write(%d) into an empty table replaced", k)
		}
	}
	b := &rt.buckets[rt.index(keys[0])]
	for _, k := range []uint64{keys[0], keys[len(keys)-1]} {
		present, _ := m.Search(k)
		before := builds.Load()
		snap := b.lock.GetVersion()
		old, val, replaced := m.Write(k, restate(k))
		if !replaced || old != present || val != present {
			t.Fatalf("restating Write(%d) = %p,%p,%v; want the present %p twice, true", k, old, val, replaced, present)
		}
		if n := builds.Load() - before; n != 0 {
			t.Fatalf("restating Write(%d) built %d values", k, n)
		}
		if !b.lock.GetVersion().Same(snap) || !b.lock.TryLockVersion(snap) {
			t.Fatalf("restating Write(%d) moved the bucket version: a reader's snapshot no longer validates", k)
		}
		b.lock.Revert()

		old, val, replaced = m.Write(k, restate(k+1))
		if !replaced || old != present || val == present || val.v != k+1 {
			t.Fatalf("Write(%d) of a new value = %p,%+v,%v; want %p, a new box of %d, true", k, old, val, replaced, present, k+1)
		}
		if n := builds.Load() - before; n != 1 {
			t.Fatalf("Write(%d) of a new value built %d values, want 1", k, n)
		}
		if b.lock.GetVersion().Same(snap) {
			t.Fatalf("Write(%d) of a new value left the bucket version unchanged", k)
		}
	}
}

// TestWriteKeepSeesOnlyValidatedValues stages a delete in the window
// between Write's parse finding its key and the load of the value Keep
// judges, through testHookWriteHit, once on an inline slot and once on a
// chain node. The delete clears the slot's word (nil) or unlinks the node
// with its word frozen at the value being restated. Validated against the
// bucket version, either read fails and the write restarts, finds the key
// absent and inserts it. Judged before validation, the slot's nil panics
// in Keep, and the node's frozen value is kept — a write that reports the
// key replaced while it is gone.
func TestWriteKeepSeesOnlyValidatedValues(t *testing.T) {
	for _, chained := range []bool{false, true} {
		m := NewResizableOf[*box](8)
		rt := m.root.Load()
		keys := chainKeys(rt, inlinePairs+1)
		for _, k := range keys {
			m.Write(k, restate(k))
		}
		target := keys[0] // inline
		if chained {
			target = keys[len(keys)-1]
		}
		fired := false
		testHookWriteHit = func() {
			if fired {
				return
			}
			fired = true
			if _, ok := m.Delete(target); !ok {
				t.Errorf("Delete(%d) inside the hook missed", target)
			}
		}
		_, val, replaced := m.Write(target, restate(target))
		testHookWriteHit = nil
		if !fired {
			t.Fatalf("chained=%v: hook never fired", chained)
		}
		if replaced {
			t.Fatalf("chained=%v: Write(%d) kept a value its key no longer held", chained, target)
		}
		if got, ok := m.Search(target); !ok || got != val || got.v != target {
			t.Fatalf("chained=%v: Search(%d) = %+v,%v after the write; want its new box", chained, target, got, ok)
		}
	}
}

// TestWriteKeepWaitsOutALockedBucket stages a delete that holds the
// bucket lock while Write parses: the parse snapshots the locked version
// and finds its key in an inline slot, and the delete then clears the
// slot. The version cannot move while the lock is held, so a re-check
// against a locked snapshot passes over the cleared word; Write must
// instead wait for an unlocked snapshot, and once the delete completes
// find the key absent and insert it. With the locked-snapshot check
// removed, the hook fires under the lock, the delete's stores run inside
// it, and Keep is handed the nil word.
func TestWriteKeepWaitsOutALockedBucket(t *testing.T) {
	m := NewResizableOf[*box](8)
	rt := m.root.Load()
	target := chainKeys(rt, 1)[0]
	m.Write(target, restate(target))
	b := &rt.buckets[rt.index(target)]
	s := &b.inline[0]
	if s.key.Load() != target {
		t.Fatalf("key %d is not in the bucket's first inline slot", target)
	}
	if !b.lock.TryLockVersion(b.lock.GetVersion()) { // the delete's critical section opens
		t.Fatal("could not lock the bucket")
	}
	clear := func() { s.key.Store(0); core.ClearWord(&s.val) } // its stores
	underLock := make(chan struct{})
	testHookWriteHit = func() {
		if b.lock.GetVersion().IsLocked() {
			clear()
			close(underLock)
		}
	}
	defer func() { testHookWriteHit = nil }()
	type result struct {
		val      *box
		replaced bool
		panicked any
	}
	done := make(chan result, 1)
	go func() {
		var r result
		defer func() { r.panicked = recover(); done <- r }()
		_, r.val, r.replaced = m.Write(target, restate(target))
	}()
	select {
	case <-underLock:
	case <-time.After(50 * time.Millisecond):
		clear()
	}
	b.lock.Unlock() // the delete completes
	r := <-done
	if r.panicked != nil {
		t.Fatalf("Write judged the word of a locked bucket: %v", r.panicked)
	}
	if r.replaced {
		t.Fatalf("Write(%d) kept a value its key no longer held", target)
	}
	if got, ok := m.Search(target); !ok || got != r.val || got.v != target {
		t.Fatalf("Search(%d) = %+v,%v after the write; want its new box", target, got, ok)
	}
}

// TestWriteRestatesRaceDeletes runs restating writes against deletes and
// fresh writes of the same few keys, on a table small enough that the
// keys share inline slots and chains and resize under the traffic. Every
// kept value must be one holding what was written, and the count of
// inserts minus deletes must equal what is left.
func TestWriteRestatesRaceDeletes(t *testing.T) {
	m := NewResizableOf[*box](1)
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
					if _, ok := m.Delete(k); ok {
						net.Add(-1)
					}
					continue
				case 1:
					p.Keep = nil // stores a new box, never kept
				}
				old, val, replaced := m.Write(k, p)
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
		if v, ok := m.Search(k); ok {
			present++
			if v == nil || v.v != k {
				t.Fatalf("Search(%d) = %+v", k, v)
			}
		}
	}
	if int64(present) != net.Load() || m.Len() != present {
		t.Fatalf("%d keys present, Len %d, inserts - deletes = %d", present, m.Len(), net.Load())
	}
}
