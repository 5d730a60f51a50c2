package qsbr

import "testing"

// TestReclaimerZeroValueIsHeapBacked pins the nil-Pool contract: every
// operation is a safe no-op returning nil, so the GC-reclaimed structures
// (the paper variants) share the recycling code path unchanged.
func TestReclaimerZeroValueIsHeapBacked(t *testing.T) {
	var rc Reclaimer
	if rc.Handle() != nil {
		t.Fatal("nil-pool Handle must return nil")
	}
	if rc.Pin() != nil {
		t.Fatal("nil-pool Pin must return nil")
	}
	if rc.Alloc() != nil {
		t.Fatal("nil-pool Alloc must return nil")
	}
	rc.Retire(new(int)) // must not panic
	rc.Free(new(int))   // must not panic
	rc.Release()        // must not panic, and must reset for reuse
	if rc.tried {
		t.Fatal("Release did not reset the acquire attempt")
	}
}

// TestReclaimerLifecycle drives one retire→reclaim→reuse round through
// the carrier: an object retired under one borrow becomes allocatable
// after enough quiescent passes.
func TestReclaimerLifecycle(t *testing.T) {
	d := NewDomain()
	p := NewPool(d, 2)
	obj := new(int)

	rc := Reclaimer{Pool: p}
	if rc.Alloc() != nil {
		t.Fatal("empty free list must alloc nil")
	}
	rc.Retire(obj)
	th := rc.Handle()
	if th == nil {
		t.Fatal("Handle returned nil with free slots")
	}
	// Drive the epoch forward until the retirement reclaims: with every
	// other slot parked, two quiescent passes suffice.
	th.Quiescent()
	th.Quiescent()
	if got := rc.Alloc(); got != obj {
		t.Fatalf("Alloc = %v, want the retired object back", got)
	}
	rc.Release()

	retired, reclaimed, reused := d.Stats()
	if retired != 1 || reclaimed != 1 || reused != 1 {
		t.Fatalf("stats = %d/%d/%d, want 1/1/1", retired, reclaimed, reused)
	}
}

// TestReclaimerFreeSkipsEpoch pins the lost-insert path: a never-published
// object handed to Free is immediately allocatable, no quiescent pass
// needed.
func TestReclaimerFreeSkipsEpoch(t *testing.T) {
	d := NewDomain()
	p := NewPool(d, 2)
	rc := Reclaimer{Pool: p}
	defer rc.Release()
	obj := new(int)
	rc.Free(obj)
	if got := rc.Alloc(); got != obj {
		t.Fatalf("Alloc = %v, want the freed object immediately", got)
	}
}

// TestReclaimerPinFallsBackToRegister is the exhaustion contract Pin
// exists for: with every pool slot borrowed, Pin must still produce an
// epoch-announcing handle (a freshly registered thread) whose announced
// epoch blocks reclamation until Release, and Release must unregister it.
func TestReclaimerPinFallsBackToRegister(t *testing.T) {
	d := NewDomain()
	p := NewPool(d, 2)
	// Exhaust the pool.
	a, b := p.Acquire(), p.Acquire()
	if a == nil || b == nil {
		t.Fatal("could not exhaust a 2-slot pool")
	}
	if p.Acquire() != nil {
		t.Fatal("pool not exhausted")
	}

	rc := Reclaimer{Pool: p}
	if rc.Handle() != nil {
		t.Fatal("Handle must fail on an exhausted pool")
	}
	th := rc.Pin()
	if th == nil {
		t.Fatal("Pin must fall back to a registered thread")
	}
	// The pinned announcement must block another thread's reclamation.
	// Keep slot a's announcement fresh around each sweep so the pin is the
	// only thing standing between the retirement and the free list.
	b.Retire(new(int))
	pinned := th.announced.Load()
	a.Quiescent()
	b.Quiescent()
	a.Quiescent()
	b.Quiescent()
	if got := b.FreeListLen(); got != 0 {
		t.Fatalf("pinned epoch %d did not block reclamation (free list %d)", pinned, got)
	}

	d.mu.Lock()
	threadsBefore := len(d.threads)
	d.mu.Unlock()
	rc.Release()
	d.mu.Lock()
	threadsAfter := len(d.threads)
	d.mu.Unlock()
	if threadsAfter != threadsBefore-1 {
		t.Fatalf("Release did not unregister the Pin fallback (threads %d -> %d)", threadsBefore, threadsAfter)
	}
	// With the pin gone the blocked retirement reclaims.
	a.Quiescent()
	b.Quiescent()
	a.Quiescent()
	b.Quiescent()
	if got := b.FreeListLen(); got != 1 {
		t.Fatalf("free list %d after unpin, want 1", got)
	}
	p.Release(a)
	p.Release(b)

	// A released reclaimer is reusable, now through the pool again.
	if rc.Pin() == nil {
		t.Fatal("reused reclaimer failed to pin")
	}
	if rc.registered {
		t.Fatal("pool borrow wrongly marked as registered")
	}
	rc.Release()
}

// TestReclaimerPinRetirementsSurviveUnregister pins that objects retired
// on a Pin-fallback handle are not lost when Release unregisters it: the
// pre-unregister quiescent pass (or the domain orphan list) must account
// for them.
func TestReclaimerPinRetirementsSurviveUnregister(t *testing.T) {
	d := NewDomain()
	p := NewPool(d, 2)
	a, b := p.Acquire(), p.Acquire()
	rc := Reclaimer{Pool: p}
	rc.Pin()
	rc.Retire(new(int))
	// Park the pool slots so their stale announcements do not pin the
	// retirement past the unregister.
	p.Release(a)
	p.Release(b)
	rc.Release()
	if pend := d.OrphansPending(); pend != 0 {
		// Acceptable fallback: parked as orphan, dropped on the next prune.
		d.minAnnounced()
		if pend = d.OrphansPending(); pend != 0 {
			t.Fatalf("%d orphans still pending after prune", pend)
		}
	}
}

// clearable records the Clear qsbr owes an object on its way to a free
// list.
type clearable struct{ cleared bool }

func (c *clearable) Clear() { c.cleared = true }

// TestExhaustedPoolStillServes pins the fallback the limits table
// promises for a pool whose every slot is borrowed: the lazy borrow gets
// no handle — its caller allocates from the heap and its retirements drop
// to the collector — and Pin still hands out a working handle, freshly
// registered, which retires and reclaims like a pooled one (clearing what
// it reclaims) and unregisters on Release, leaving the domain as it was.
func TestExhaustedPoolStillServes(t *testing.T) {
	d := NewDomain()
	p := NewPool(d, 1)
	held := p.Acquire()
	if held == nil || p.Acquire() != nil {
		t.Fatal("could not exhaust a 1-slot pool")
	}
	lazy := Reclaimer{Pool: p}
	if lazy.Handle() != nil || lazy.Alloc() != nil {
		t.Fatal("the lazy borrow got a handle from an exhausted pool")
	}
	lazy.Retire(new(int))
	lazy.Release()
	for i := 0; i < 100; i++ {
		rc := Reclaimer{Pool: p}
		if rc.Pin() == nil {
			t.Fatalf("Pin %d on an exhausted pool returned no handle", i)
		}
		rc.Retire(new(int))
		rc.Release()
	}
	p.Release(held)
	// With the borrowed slot back, a pinned handle's retirement reclaims
	// at its own release — and is cleared on the way.
	held = p.Acquire()
	c := &clearable{}
	rc := Reclaimer{Pool: p}
	rc.Pin()
	rc.Retire(c)
	p.Release(held)
	rc.Release()
	if !c.cleared {
		t.Fatal("an object reclaimed through a fallback handle was not cleared")
	}
	d.mu.Lock()
	threads := len(d.threads)
	d.mu.Unlock()
	if threads != 1 {
		t.Fatalf("domain holds %d threads after the fallbacks released, want the pool's 1", threads)
	}
}
