package maint

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/optik-go/optik/ds/hashmap"
)

// newTestScheduler builds an unstarted scheduler for white-box, single-step
// service tests: no goroutine, no timer, just the sampling state.
func newTestScheduler() *Scheduler {
	return &Scheduler{
		entries: make(map[Maintainer]*schedEntry),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		wake:    make(chan struct{}, 1),
		base:    DefaultInterval,
	}
}

// TestSchedulerBalancedTrafficReadsActive is the regression test for the
// activity signal's sharpening: perfectly balanced traffic — every insert
// matched by a delete, so every stripe of the element counter ends where
// it started — must still read as active. The old signal compared the
// striped *sum* across samples and was blind to exactly this pattern (the
// steady state of any full cache); the op count is monotone, so it cannot
// be.
func TestSchedulerBalancedTrafficReadsActive(t *testing.T) {
	m := hashmap.NewResizable(64)
	s := newTestScheduler()
	e := &schedEntry{m: m}

	if !s.service(e) {
		t.Fatal("first sample must read active (nothing seen yet)")
	}
	if s.service(e) {
		t.Fatal("untouched table read as active on the second sample")
	}

	lenBefore := m.Len()
	for k := uint64(1); k <= 1000; k++ {
		if !m.Insert(k, k) {
			t.Fatalf("Insert(%d) failed", k)
		}
		if _, ok := m.Delete(k); !ok {
			t.Fatalf("Delete(%d) failed", k)
		}
	}
	if n := m.Len(); n != lenBefore {
		t.Fatalf("traffic was not balanced: Len moved %d -> %d", lenBefore, n)
	}
	// The net sum is back where it was — the exact state the old signal
	// could not distinguish from idleness.
	if !s.service(e) {
		t.Fatal("balanced traffic read as idle: the activity signal regressed to the striped-sum blind spot")
	}
	if s.service(e) {
		t.Fatal("table read as active with no traffic since the last sample")
	}
}

// TestSchedulerValueUpdatesReadActive pins that in-place replacements —
// which move neither the element count nor any threshold — still feed the
// activity signal.
func TestSchedulerValueUpdatesReadActive(t *testing.T) {
	m := hashmap.NewResizable(8)
	m.Insert(7, 1)
	s := newTestScheduler()
	e := &schedEntry{m: m}
	s.service(e)
	s.service(e) // settle to idle
	if _, replaced := m.Upsert(7, 2); !replaced {
		t.Fatal("Upsert did not replace")
	}
	if !s.service(e) {
		t.Fatal("value update read as idle")
	}
}

// TestSchedulerIdleBackoffWidens proves the poll interval actually backs
// off: an idle scheduler must widen its interval pass by pass to the cap,
// and a registration must snap it back to the base. It reads each pass's
// verdict and stored interval through testHookPass: polling Interval would
// have to land in the ~2 ms the interval stays at base after Register,
// before idle backoff widens it again.
func TestSchedulerIdleBackoffWidens(t *testing.T) {
	base := time.Millisecond
	type passEvent struct {
		active   bool
		interval time.Duration
	}
	events := make(chan passEvent)
	quit := make(chan struct{})
	testHookPass = func(active bool, interval time.Duration) {
		select {
		case events <- passEvent{active, interval}:
		case <-quit:
		}
	}
	s := NewScheduler(base)
	defer func() {
		close(quit)
		s.Stop()
		testHookPass = nil
	}()
	next := func() passEvent {
		select {
		case e := <-events:
			return e
		case <-time.After(30 * time.Second):
			t.Fatal("no scheduler pass in 30 s")
			return passEvent{}
		}
	}
	if got := s.Interval(); got != base {
		t.Fatalf("fresh scheduler interval = %v, want %v", got, base)
	}
	// An empty fleet is idle: every pass doubles the interval, up to the cap.
	for want := 2 * base; want <= idleBackoffMax*base; want *= 2 {
		if e := next(); e.active || e.interval != want {
			t.Fatalf("idle pass: active %v, interval %v; want idle, %v", e.active, e.interval, want)
		}
	}
	if e := next(); e.active || e.interval != idleBackoffMax*base {
		t.Fatalf("idle pass at the cap: active %v, interval %v; want idle, %v", e.active, e.interval, idleBackoffMax*base)
	}
	// A registration is activity: the pass that first services the new
	// table reads it active and leaves the cadence at the base. (A pass
	// already past its snapshot when Register ran may report idle first.)
	m := hashmap.NewResizable(8)
	s.Register(m)
	e := next()
	if !e.active {
		e = next()
	}
	if !e.active || e.interval != base {
		t.Fatalf("pass after Register: active %v, interval %v; want active, %v", e.active, e.interval, base)
	}
}

// TestSchedulerManyTablesOneGoroutine is the sharded-fleet scenario at
// test scale: one scheduler (one goroutine) services 16 tables; each is
// grown past several resizes and drained, and every one must return to
// its floor with no caller Quiesce calls and no per-table goroutines.
func TestSchedulerManyTablesOneGoroutine(t *testing.T) {
	const tables = 16
	const floor = 64
	n := 10000
	if testing.Short() {
		n = 3000
	}
	before := runtime.NumGoroutine()
	s := NewScheduler(time.Millisecond)
	defer s.Stop()
	ms := make([]*hashmap.Resizable[uint64], tables)
	for i := range ms {
		ms[i] = hashmap.NewResizable(floor)
		s.Register(ms[i])
	}
	if got := s.Tables(); got != tables {
		t.Fatalf("Tables = %d, want %d", got, tables)
	}
	// One goroutine for the whole fleet. Unrelated runtime goroutines can
	// come and go, so allow slack downward but never more than +1.
	if got := runtime.NumGoroutine(); got > before+1 {
		t.Fatalf("goroutines grew from %d to %d; the fleet must cost exactly one", before, got)
	}

	var wg sync.WaitGroup
	for i := range ms {
		wg.Add(1)
		go func(m *hashmap.Resizable[uint64], seed uint64) {
			defer wg.Done()
			for k := uint64(1); k <= uint64(n); k++ {
				m.Insert(k, k+seed)
			}
			for k := uint64(1); k <= uint64(n); k++ {
				m.Delete(k)
			}
		}(ms[i], uint64(i))
	}
	wg.Wait()

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		settled := 0
		for _, m := range ms {
			if m.Buckets() == floor {
				settled++
			}
		}
		if settled == tables {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, m := range ms {
		if got := m.Buckets(); got != floor {
			t.Errorf("table %d: buckets = %d after idle drain, want the %d floor", i, got, floor)
		}
		if got := m.Len(); got != 0 {
			t.Errorf("table %d: Len = %d after drain, want 0", i, got)
		}
	}
}

// TestSchedulerLifecycle pins Register/Unregister/Stop edge cases: double
// registration is a no-op, unregistered tables stop being serviced but
// keep working, Stop is idempotent, and a stopped scheduler refuses new
// registrations instead of leaking them.
func TestSchedulerLifecycle(t *testing.T) {
	s := NewScheduler(time.Millisecond)
	m := hashmap.NewResizable(8)
	s.Register(m)
	s.Register(m)
	if got := s.Tables(); got != 1 {
		t.Fatalf("Tables = %d after double Register, want 1", got)
	}
	s.Unregister(m)
	if got := s.Tables(); got != 0 {
		t.Fatalf("Tables = %d after Unregister, want 0", got)
	}
	if !m.Insert(1, 1) {
		t.Fatal("unregistered table stopped working")
	}
	s.Stop()
	s.Stop() // idempotent
	s.Register(m)
	if got := s.Tables(); got != 0 {
		t.Fatalf("stopped scheduler accepted a registration (Tables = %d)", got)
	}
}

// stubMaintainer is a minimal non-table Maintainer: the scheduler must
// drive anything implementing the interface (the skip-list shards behind
// store.Ordered ride the same goroutine), choosing the idle or busy pass
// purely from the activity sample.
type stubMaintainer struct {
	sample atomic.Uint64
	idles  atomic.Int64
	busies atomic.Int64
}

func (m *stubMaintainer) ActivitySample() uint64       { return m.sample.Load() }
func (m *stubMaintainer) MaintainIdle(<-chan struct{}) { m.idles.Add(1) }
func (m *stubMaintainer) MaintainBusy()                { m.busies.Add(1) }

// TestSchedulerDrivesAnyMaintainer pins the structure-agnostic contract:
// an unchanged sample earns MaintainIdle, a changed one MaintainBusy, and
// the post-maintenance re-sample keeps the scheduler's own pass from
// reading as traffic.
func TestSchedulerDrivesAnyMaintainer(t *testing.T) {
	m := &stubMaintainer{}
	s := newTestScheduler()
	e := &schedEntry{m: m}

	if !s.service(e) {
		t.Fatal("first sample must read active (nothing seen yet)")
	}
	if got := m.busies.Load(); got != 1 {
		t.Fatalf("busies = %d after first service, want 1", got)
	}
	if s.service(e) {
		t.Fatal("unchanged sample read as active")
	}
	if got := m.idles.Load(); got != 1 {
		t.Fatalf("idles = %d after idle service, want 1", got)
	}
	m.sample.Add(1)
	if !s.service(e) {
		t.Fatal("changed sample read as idle")
	}
	if got := m.busies.Load(); got != 2 {
		t.Fatalf("busies = %d after activity, want 2", got)
	}
}

// TestSchedulerMixedFleet registers a Resizable table and a stub in one
// scheduler: both are serviced, neither starves the other, and Tables
// counts them together.
func TestSchedulerMixedFleet(t *testing.T) {
	s := NewScheduler(time.Millisecond)
	defer s.Stop()
	r := hashmap.NewResizable(8)
	m := &stubMaintainer{}
	s.Register(r)
	s.Register(m)
	if got := s.Tables(); got != 2 {
		t.Fatalf("Tables = %d, want 2", got)
	}
	deadline := time.Now().Add(30 * time.Second)
	for m.idles.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if m.idles.Load() == 0 {
		t.Fatal("stub maintainer never reached an idle pass")
	}
	s.Unregister(m)
	if got := s.Tables(); got != 1 {
		t.Fatalf("Tables = %d after Unregister, want 1", got)
	}
}
