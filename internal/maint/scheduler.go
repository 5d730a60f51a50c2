// Package maint is the shared maintenance goroutine behind every structure
// that needs background attention: one Scheduler services any number of
// registered Maintainers — hashmap.Resizable tables, a string store's
// expiry/eviction pass — so a
// sharded deployment pays one timer and one goroutine for its whole fleet
// instead of one per shard. It lives outside ds/hashmap because nothing in
// it is table-specific: a structure joins by implementing three methods,
// without importing the hash map.
package maint

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultInterval is the base poll period NewScheduler uses when given a
// non-positive interval: short enough that an abandoned table shrinks
// promptly, long enough that an idle scheduler is invisible in a profile.
// While the fleet stays idle the scheduler backs the interval off
// exponentially, up to idleBackoffMax times this.
const DefaultInterval = 10 * time.Millisecond

// Scheduler is one maintenance goroutine over a set of registered
// structures. Each poll it samples every structure's activity; one idle
// for two consecutive samples gets the full maintenance pass (a table
// quiesces its resize chain home), one with traffic gets a bounded hand
// and is otherwise left to drive its own maintenance on the backs of its
// updates.
//
// Two properties make one goroutine enough for a fleet:
//
//   - The activity signal is whatever monotone write-visible word the
//     structure exposes (for the tables, the op half of the packed striped
//     counter hashed with the root slab and migration cursor). Comparing
//     an element *sum* instead would read perfectly balanced traffic —
//     equal inserts and deletes, the steady state of any full cache — as
//     idle. A spurious idle verdict is always safe (the idle pass is
//     merely unnecessary work), but a scheduler serving many structures
//     cannot afford to run full passes against busy ones.
//   - The poll interval backs off exponentially while every structure is
//     idle, doubling from the base up to idleBackoffMax times it, and
//     snaps back to the base the moment any shows activity (or one is
//     registered). An abandoned fleet costs a waking timer a few times a
//     second instead of a hundred times; a busy one is sampled at the
//     base rate.
//
// Register may be called at any time, including while the scheduler is
// mid-pass; Stop halts the goroutine and waits for it.
type Scheduler struct {
	mu      sync.Mutex
	entries map[Maintainer]*schedEntry
	stop    chan struct{}
	done    chan struct{}
	wake    chan struct{}
	stopped bool
	base    time.Duration
	// interval mirrors the goroutine's current poll interval in
	// nanoseconds (racy reads via Interval; for monitoring and the
	// backoff tests).
	interval atomic.Int64
}

// Maintainer is what a structure exposes to share the maintenance
// goroutine. The scheduler samples activity each poll; two equal
// consecutive samples earn the full idle pass, anything else gets the
// bounded busy hand.
type Maintainer interface {
	// ActivitySample condenses the structure's write-visible state into
	// one word: it MUST change whenever an update touched the structure
	// since the previous call (reads may leave no trace — reads alone
	// never need maintenance). A spurious "unchanged" verdict must be
	// safe for MaintainIdle, merely unnecessary; implementations that
	// hash several fields together accept a collision-induced false idle
	// on those terms.
	ActivitySample() uint64
	// MaintainIdle runs the full maintenance pass — for the hash table,
	// quiesce migrations home — aborting promptly when cancel closes, so
	// maintenance never outlives a Stop.
	MaintainIdle(cancel <-chan struct{})
	// MaintainBusy lends a bounded hand to a structure with traffic (for
	// the hash table: advance an in-flight migration by one quantum). It
	// must not block on the structure going idle.
	MaintainBusy()
}

// schedEntry is one registered structure plus its last activity sample.
type schedEntry struct {
	m      Maintainer
	sample uint64
	seen   bool
}

// idleBackoffMax caps the idle poll interval at this multiple of the base
// interval: wide enough that an idle fleet's timer is background noise,
// narrow enough that the first write burst after a lull is picked up
// within a second at the default base.
const idleBackoffMax = 64

// NewScheduler returns a running scheduler polling every base
// (DefaultInterval when base <= 0). It starts with no tables; the
// goroutine idles at the backed-off interval until the first Register.
func NewScheduler(base time.Duration) *Scheduler {
	if base <= 0 {
		base = DefaultInterval
	}
	s := &Scheduler{
		entries: make(map[Maintainer]*schedEntry),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		wake:    make(chan struct{}, 1),
		base:    base,
	}
	s.interval.Store(int64(base))
	go s.run()
	return s
}

// Register adds m to the scheduler's maintenance rounds and resets the
// poll interval to the base (a fresh structure deserves prompt attention).
// Registering a structure twice, or on a stopped scheduler, is a no-op.
func (s *Scheduler) Register(m Maintainer) {
	s.mu.Lock()
	if _, ok := s.entries[m]; !ok && !s.stopped {
		s.entries[m] = &schedEntry{m: m}
	}
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Stop halts the scheduler goroutine and waits for it to exit (promptly
// even mid-quiesce: the per-table maintenance is cancellable). Idempotent;
// a stopped scheduler stays stopped — start a new one instead.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.stopped = true
	s.mu.Unlock()
	close(s.stop)
	<-s.done
}

// Tables returns how many structures are registered (racy; for
// monitoring).
func (s *Scheduler) Tables() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Interval returns the scheduler's current poll interval: the base while
// any table is active, backed off exponentially (up to idleBackoffMax ×
// base) while all are idle. Racy; for monitoring and tests.
func (s *Scheduler) Interval() time.Duration {
	return time.Duration(s.interval.Load())
}

func (s *Scheduler) run() {
	defer close(s.done)
	interval := s.base
	timer := time.NewTimer(interval)
	defer timer.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-s.wake:
			// A registration: restart the cadence at the base so the new
			// table's first sample lands promptly.
			interval = s.base
			s.interval.Store(int64(interval))
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(interval)
			continue
		case <-timer.C:
		}
		active := s.pass()
		if active {
			interval = s.base
		} else if interval < s.base*idleBackoffMax {
			interval *= 2
		}
		s.interval.Store(int64(interval))
		if h := testHookPass; h != nil {
			h(active, interval)
		}
		timer.Reset(interval)
	}
}

// testHookPass, when non-nil, runs on the scheduler goroutine after every
// timed pass with the pass's verdict and the interval the loop stored
// after it. The backoff test follows the cadence pass by pass through it
// instead of polling Interval, whose base-rate window after a Register is
// only a few milliseconds wide.
var testHookPass func(active bool, interval time.Duration)

// pass runs one maintenance round over every registered table and reports
// whether any of them showed activity. The entry list is snapshotted so
// Register never waits behind a quiesce.
func (s *Scheduler) pass() bool {
	s.mu.Lock()
	entries := make([]*schedEntry, 0, len(s.entries))
	for _, e := range s.entries {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	active := false
	for _, e := range entries {
		if s.service(e) {
			active = true
		}
	}
	return active
}

// service runs one maintenance round for one structure and reports whether
// it was active since its last sample. A spurious idle verdict is safe by
// the Maintainer contract (the idle pass is always correct, merely
// unnecessary); the stop channel keeps even a wrong verdict from outliving
// the scheduler.
func (s *Scheduler) service(e *schedEntry) bool {
	cur := e.m.ActivitySample()
	idle := e.seen && e.sample == cur
	if idle {
		e.m.MaintainIdle(s.stop)
	} else {
		e.m.MaintainBusy()
	}
	// Snapshot the post-maintenance state: the scheduler's own helping
	// moves the sample, and reusing the pre-maintenance one would make the
	// scheduler read its own work as traffic and never conclude idle.
	e.sample, e.seen = e.m.ActivitySample(), true
	return !idle
}
