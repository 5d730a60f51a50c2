package skiplist

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/optik-go/optik/internal/qsbr"
	"github.com/optik-go/optik/internal/rng"
)

// TestOptikDeleteIfValueWindow is the white-box test of the conditional
// delete. Its caller (the store's value layer) samples "key maps to slot,
// and slot holds pair p0" with no lock, judges p0 dead, and asks the list
// to splice the entry out; the entry must go only if that is still what
// key maps to. Each case stages, deterministically, what a concurrent
// writer can do between the sample and the victim's lock — either before
// the call's parse, or through testHookDeleteWindow inside the parse →
// lock window — and pins the outcome. "resident" stands in for the arena
// cell of the slot; confirm is the caller's pair-identity check.
//
// With the confirm check removed the two same-slot cases that reach the
// lock delete the live successor; with the value check removed the
// other-slot case does. The in-window delete+reinsert is caught earlier —
// the parsed victim is already marked — and is here to pin exactly that.
func TestOptikDeleteIfValueWindow(t *testing.T) {
	const key, slot, otherSlot = 50, 7, 8
	type pair struct{ gen int }
	var resident atomic.Pointer[pair]

	reinsert := func(l *Optik) { // DEL key; SET key → the arena hands out the same slot again
		if _, ok := l.Delete(key); !ok {
			t.Error("staged Delete failed")
		}
		resident.Store(&pair{gen: 1})
		if !l.Insert(key, slot) {
			t.Error("staged Insert failed")
		}
	}
	cases := []struct {
		name      string
		inWindow  bool // stage through the hook instead of before the call
		stage     func(l *Optik)
		noConfirm bool
		want      bool   // DeleteIfValue's result
		wantVal   uint64 // what key maps to afterwards (when !want)
	}{
		{name: "undisturbed", stage: func(*Optik) {}, want: true},
		{name: "delete+reinsert onto the same slot, before the parse", stage: reinsert, wantVal: slot},
		{name: "delete+reinsert onto the same slot, in the window", inWindow: true, stage: reinsert, wantVal: slot},
		{name: "replaced away and back onto the same slot, in the window", inWindow: true,
			stage: func(l *Optik) {
				l.Upsert(key, otherSlot)
				resident.Store(&pair{gen: 1})
				l.Upsert(key, slot)
			}, wantVal: slot},
		{name: "replaced onto another slot, in the window", inWindow: true, noConfirm: true,
			stage: func(l *Optik) { l.Upsert(key, otherSlot) }, wantVal: otherSlot},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := NewOptik2()
			l.Insert(key-1, 1)
			l.Insert(key, slot)
			l.Insert(key+1, 1)
			p0 := &pair{}
			resident.Store(p0)
			confirm := func() bool { return resident.Load() == p0 }
			if c.noConfirm {
				confirm = nil
			}

			fired := false
			if c.inWindow {
				testHookDeleteWindow = func() {
					if !fired {
						fired = true
						c.stage(l)
					}
				}
				defer func() { testHookDeleteWindow = nil }()
			} else {
				c.stage(l)
			}
			if got := l.DeleteIfValue(key, slot, confirm); got != c.want {
				t.Fatalf("DeleteIfValue = %v, want %v", got, c.want)
			}
			if c.inWindow && !fired {
				t.Fatal("hook never fired")
			}
			v, ok := l.Search(key)
			if c.want {
				if ok {
					t.Fatalf("key still maps to %d after a successful conditional delete", v)
				}
			} else if !ok || v != c.wantVal {
				t.Fatalf("Search(key) = %d,%v after a vetoed delete, want %d,true", v, ok, c.wantVal)
			}
			// A veto must release the victim's lock and leave no mark: the
			// survivor stays replaceable and deletable.
			if !c.want {
				if _, replaced := l.Upsert(key, 99); !replaced {
					t.Fatal("survivor not replaceable after veto")
				}
				if v, ok := l.Delete(key); !ok || v != 99 {
					t.Fatalf("Delete(survivor) = %d,%v", v, ok)
				}
			}
			if got := l.Len(); got != 2 {
				t.Fatalf("Len = %d, want the 2 neighbours", got)
			}
			checkOptikTowers(t, l)
		})
	}
}

// TestOptikDeleteIfValueConcurrent races conditional deletes against
// upserts and plain deletes on a pool-backed list: every successful
// removal — conditional or not — must be counted exactly once, and a
// conditional delete may only ever remove the value it named.
func TestOptikDeleteIfValueConcurrent(t *testing.T) {
	l := NewOptikPool(qsbr.NewPool(qsbr.NewDomain(), 0))
	const keys = 64
	iters := 20000
	if testing.Short() {
		iters = 4000
	}
	var net atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.NewXorshift(seed)
			for i := 0; i < iters; i++ {
				k := r.Intn(keys) + 1
				switch r.Intn(3) {
				case 0:
					if _, replaced := l.Upsert(k, r.Intn(4)); !replaced {
						net.Add(1)
					}
				case 1:
					if _, ok := l.Delete(k); ok {
						net.Add(-1)
					}
				default:
					want := r.Intn(4)
					if l.DeleteIfValue(k, want, func() bool {
						// Under the victim's lock the value cannot move.
						v, ok := l.Search(k)
						return ok && v == want
					}) {
						net.Add(-1)
					}
				}
			}
		}(uint64(g + 1))
	}
	wg.Wait()
	if got, want := int64(l.Len()), net.Load(); got != want {
		t.Fatalf("Len = %d, net = %d", got, want)
	}
	checkOptikTowers(t, l)
}
