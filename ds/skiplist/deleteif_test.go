package skiplist

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/optik-go/optik/internal/rng"
)

// TestOptikDeleteIfValueWindow is the white-box test of the conditional
// delete. Its caller (the store's value layer) samples "key maps to pair
// p0" with no lock, judges p0 dead, and asks the list to splice the entry
// out; the entry must go only if key still maps to exactly p0. Each case
// stages, deterministically, what a concurrent writer can do between the
// sample and the victim's lock — either before the call's parse, or
// through testHookDeleteWindow inside the parse → lock window — and pins
// the outcome. Every write of the value layer builds a new pair, so a
// successor is always another pointer; the one case that puts p0 itself
// back pins that the check is identity of the word, nothing more.
//
// With the value check removed the three cases whose successor reaches
// the lock delete it. The in-window delete+reinsert is caught earlier —
// the parsed victim is already marked — and is here to pin exactly that.
func TestOptikDeleteIfValueWindow(t *testing.T) {
	const key = 50
	type pair struct{ gen int }
	p0 := &pair{}
	reinsert := func(l *Optik[*pair]) { // DEL key; SET key → a new pair
		if _, ok := l.Delete(key); !ok {
			t.Error("staged Delete failed")
		}
		if !l.Insert(key, &pair{gen: 1}) {
			t.Error("staged Insert failed")
		}
	}
	cases := []struct {
		name     string
		inWindow bool // stage through the hook instead of before the call
		stage    func(l *Optik[*pair])
		want     bool // DeleteIfValue's result
	}{
		{name: "undisturbed", stage: func(*Optik[*pair]) {}, want: true},
		{name: "delete+reinsert of the key, before the parse", stage: reinsert},
		{name: "delete+reinsert of the key, in the window", inWindow: true, stage: reinsert},
		{name: "replaced away and back to a new pair, in the window", inWindow: true,
			stage: func(l *Optik[*pair]) {
				l.Upsert(key, &pair{gen: 1})
				l.Upsert(key, &pair{gen: 2})
			}},
		{name: "replaced by another pair, in the window", inWindow: true,
			stage: func(l *Optik[*pair]) { l.Upsert(key, &pair{gen: 1}) }},
		{name: "replaced away and back to the same word, in the window", inWindow: true, want: true,
			stage: func(l *Optik[*pair]) {
				l.Upsert(key, &pair{gen: 1})
				l.Upsert(key, p0)
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := NewOptikOf[*pair]()
			l.Insert(key-1, &pair{})
			l.Insert(key, p0)
			l.Insert(key+1, &pair{})

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
			survivor, _ := l.Search(key)
			if c.inWindow {
				survivor = nil // staged inside the call: read it afterwards
			}
			if got := l.DeleteIfValue(key, p0); got != c.want {
				t.Fatalf("DeleteIfValue = %v, want %v", got, c.want)
			}
			if c.inWindow && !fired {
				t.Fatal("hook never fired")
			}
			v, ok := l.Search(key)
			if c.want {
				if ok {
					t.Fatalf("key still maps to %+v after a successful conditional delete", *v)
				}
			} else if !ok || v == p0 || (survivor != nil && v != survivor) {
				t.Fatalf("Search(key) = %p,%v after a vetoed delete, want the successor", v, ok)
			}
			// A veto must release the victim's lock and leave no mark: the
			// survivor stays replaceable and deletable.
			if !c.want {
				next := &pair{gen: 99}
				if !l.ReplaceIfValue(key, v, next) {
					t.Fatal("survivor not replaceable after veto")
				}
				if got, ok := l.Delete(key); !ok || got != next {
					t.Fatalf("Delete(survivor) = %p,%v", got, ok)
				}
			}
			if got := l.Len(); got != 2 {
				t.Fatalf("Len = %d, want the 2 neighbours", got)
			}
			checkOptikTowers(t, l)
		})
	}
}

// TestOptikDeleteIfValueConcurrent races conditional deletes and replaces
// against upserts and plain deletes: every
// successful removal — conditional or not — must be counted exactly once,
// and a conditional update may only ever act on the value it named: every
// word written is unique, so a deleted or replaced word must be the one
// the caller read.
func TestOptikDeleteIfValueConcurrent(t *testing.T) {
	l := NewOptik2()
	const keys = 64
	iters := 20000
	if testing.Short() {
		iters = 4000
	}
	var net atomic.Int64
	var words atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.NewXorshift(seed)
			for i := 0; i < iters; i++ {
				k := r.Intn(keys) + 1
				switch r.Intn(4) {
				case 0:
					if _, replaced := l.Upsert(k, words.Add(1)); !replaced {
						net.Add(1)
					}
				case 1:
					if _, ok := l.Delete(k); ok {
						net.Add(-1)
					}
				case 2:
					if v, ok := l.Search(k); ok && l.ReplaceIfValue(k, v, words.Add(1)) {
						if got, ok := l.Search(k); ok && got == v {
							t.Errorf("key %d still maps to %d after replacing it", k, v)
						}
					}
				default:
					if v, ok := l.Search(k); ok && l.DeleteIfValue(k, v) {
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
