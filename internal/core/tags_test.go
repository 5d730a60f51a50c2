package core

import (
	"sync"
	"testing"
	"time"
)

// counterOf strips a version down to its counter bits (0–55).
func counterOf(v Version) uint64 { return uint64(v) & counterMask }

// TestLockTagsSurviveEveryPath pins the tag byte's first contract: no
// acquisition or release path carries into it or clears it. Each path runs
// from a tagged, unlocked lock, and afterwards the tags read exactly as
// set and the counter moved as the path promises.
func TestLockTagsSurviveEveryPath(t *testing.T) {
	const tags = 0xA5 << 56
	for _, c := range []struct {
		name    string
		run     func(l *Lock)
		advance uint64 // counter change the path makes
	}{
		{"Lock+Unlock", func(l *Lock) { l.Lock(); l.Unlock() }, 2},
		{"Lock+Revert", func(l *Lock) { l.Lock(); l.Revert() }, 0},
		{"TryLockVersion+Unlock", func(l *Lock) {
			if !l.TryLockVersion(l.GetVersion()) {
				t.Fatal("TryLockVersion on a quiescent tagged lock failed")
			}
			l.Unlock()
		}, 2},
		{"TryLockVersion+Revert", func(l *Lock) {
			if !l.TryLockVersion(l.GetVersion()) {
				t.Fatal("TryLockVersion on a quiescent tagged lock failed")
			}
			l.Revert()
		}, 0},
		{"LockVersion+Unlock", func(l *Lock) {
			if !l.LockVersion(l.GetVersion()) {
				t.Fatal("LockVersion on a quiescent tagged lock did not validate")
			}
			l.Unlock()
		}, 2},
		{"stale LockVersion+Revert", func(l *Lock) {
			if l.LockVersion(Init) {
				t.Fatal("LockVersion validated a snapshot without the tags")
			}
			l.Revert()
		}, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			var l Lock
			l.SetTags(tags)
			before := l.GetVersion()
			c.run(&l)
			after := l.GetVersion()
			if after.Tags() != tags || l.Tags() != tags {
				t.Fatalf("tags %#x after the path, want %#x", after.Tags(), uint64(tags))
			}
			if after.IsLocked() || counterOf(after) != counterOf(before)+c.advance {
				t.Fatalf("counter %d -> %d (locked %v), want +%d and free",
					counterOf(before), counterOf(after), after.IsLocked(), c.advance)
			}
		})
	}
}

// TestLockCounterWrapsBelowTags pins the carry the release must not make:
// a counter at the top of its 56 bits wraps to zero and the tags stay.
func TestLockCounterWrapsBelowTags(t *testing.T) {
	const tags = 0x81 << 56
	var l Lock
	l.word.Store(tags | (counterMask - 1)) // the last even counter
	l.Lock()
	l.Unlock()
	if got := l.GetVersion(); got != Version(tags) {
		t.Fatalf("word after wrapping release = %#x, want %#x", uint64(got), uint64(tags))
	}
}

// TestLockTagChangeFailsSnapshot pins that a tag change is a version
// change: a snapshot taken before a tag is set no longer validates — by
// either validate-and-lock path.
func TestLockTagChangeFailsSnapshot(t *testing.T) {
	var l Lock
	v := l.GetVersion()
	l.SetTags(1 << 56)
	if l.TryLockVersion(v) {
		t.Fatal("TryLockVersion validated a snapshot taken before a tag was set")
	}
	if l.LockVersion(v) {
		t.Fatal("LockVersion validated a snapshot taken before a tag was set")
	}
	l.Revert()
	if !l.TryLockVersion(l.GetVersion()) {
		t.Fatal("a fresh snapshot after the tag change does not validate")
	}
	l.Unlock()
}

// TestLockTagsRefuseOtherBits pins that the tag API cannot reach the
// counter or the locked bit.
func TestLockTagsRefuseOtherBits(t *testing.T) {
	for name, f := range map[string]func(l *Lock){
		"SetTags locked bit": func(l *Lock) { l.SetTags(1) },
		"SetTags bit 55":     func(l *Lock) { l.SetTags(TagMask | 1<<55) },
	} {
		t.Run(name, func(t *testing.T) {
			var l Lock
			defer func() {
				if recover() == nil {
					t.Fatal("bits outside the tag byte were accepted")
				}
				if got := l.GetVersion(); got != Init {
					t.Fatalf("refused call changed the word to %#x", uint64(got))
				}
			}()
			f(&l)
		})
	}
}

// TestLockTagSetterRacesLockers is the concurrent contract: two lockers
// run critical sections through both acquisition paths while a third
// goroutine, holding nothing, keeps setting tags. Mutual exclusion holds
// (the plain counter inside the sections is exact, and -race sees no race
// on it), every section advances the counter by exactly 2, and no tag
// write is lost or carried into. A tag write that drops a release leaves the
// lock held forever; the watchdog turns that hang into a failure.
func TestLockTagSetterRacesLockers(t *testing.T) {
	sections := 20000
	if testing.Short() {
		sections = 5000
	}
	var l Lock
	inside := 0 // written only under l
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < sections; i++ {
				if (i+g)%2 == 0 {
					l.Lock()
				} else {
					for !l.TryLockVersion(l.GetVersionWait()) {
					}
				}
				inside++
				l.Unlock()
			}
		}(g)
	}
	stop := make(chan struct{})
	setterDone := make(chan uint64)
	go func() {
		var tags uint64
		for i := 0; ; i++ {
			select {
			case <-stop:
				setterDone <- tags
				return
			default:
			}
			bit := uint64(1) << (56 + i%8)
			l.SetTags(bit)
			tags |= bit
		}
	}()
	lockersDone := make(chan struct{})
	go func() { wg.Wait(); close(lockersDone) }()
	select {
	case <-lockersDone:
	case <-time.After(time.Minute):
		t.Fatalf("lockers stalled with the word at %#x: a release was lost", uint64(l.GetVersion()))
	}
	close(stop)
	tags := <-setterDone
	got := l.GetVersion()
	if inside != 2*sections {
		t.Fatalf("%d sections ran inside the lock, want %d", inside, 2*sections)
	}
	if counterOf(got) != uint64(4*sections) {
		t.Fatalf("counter %d after %d sections, want exactly 2 per section", counterOf(got), 2*sections)
	}
	if got.Tags() != tags {
		t.Fatalf("tags %#x, want every bit the setter set, %#x", got.Tags(), tags)
	}
}
