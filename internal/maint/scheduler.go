// Package maint is the maintenance goroutine behind a store: one
// Scheduler services the Maintainers its store hands it at construction —
// the hash table, the string layer's expiry/eviction pass — pays only
// while there is work, and backs off while there is none. It lives outside
// ds/hashmap because nothing in it is table-specific: a structure joins by
// implementing three methods, without importing the hash map.
package maint

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultInterval is the base poll period NewScheduler uses when given a
// non-positive interval: short enough that an abandoned table shrinks
// promptly, long enough that an idle scheduler is invisible in a profile.
// While every maintainer stays idle the scheduler backs the interval off
// exponentially, up to idleBackoffMax times this.
const DefaultInterval = 10 * time.Millisecond

// Scheduler is one maintenance goroutine over a fixed list of structures.
// Each poll it samples every structure's activity; one idle for two
// consecutive samples gets the full maintenance pass (a table quiesces its
// resize chain home), one with traffic gets a bounded hand and is
// otherwise left to drive its own maintenance on the backs of its updates.
// Two properties keep that cheap:
//
//   - The activity signal is whatever monotone write-visible word the
//     structure exposes (for the tables, the op half of the packed striped
//     counter hashed with the root slab and migration cursor). Comparing
//     an element *sum* instead would read perfectly balanced traffic —
//     equal inserts and deletes, the steady state of any full cache — as
//     idle. A spurious idle verdict is always safe (the idle pass is
//     merely unnecessary work), but a scheduler cannot afford to run full
//     passes against a busy structure.
//   - The poll interval backs off exponentially while every structure is
//     idle, doubling from the base up to idleBackoffMax times it, and
//     snaps back to the base the moment any shows activity. An abandoned
//     store costs a waking timer a few times a second instead of a
//     hundred times; a busy one is sampled at the base rate.
//
// The goroutine alone reads and writes the list, so nothing in a pass
// takes a lock. Stop halts the goroutine and waits for it.
type Scheduler struct {
	entries  []schedEntry
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	base     time.Duration
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

// schedEntry is one maintained structure plus its last activity sample.
type schedEntry struct {
	m      Maintainer
	sample uint64
	seen   bool
}

// idleBackoffMax caps the idle poll interval at this multiple of the base
// interval: wide enough that an idle store's timer is background noise,
// narrow enough that the first write burst after a lull is picked up
// within a second at the default base.
const idleBackoffMax = 64

// NewScheduler returns a running scheduler polling ms every base
// (DefaultInterval when base <= 0), in the order given.
func NewScheduler(base time.Duration, ms ...Maintainer) *Scheduler {
	if base <= 0 {
		base = DefaultInterval
	}
	s := &Scheduler{
		entries: make([]schedEntry, len(ms)),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		base:    base,
	}
	for i, m := range ms {
		s.entries[i].m = m
	}
	s.interval.Store(int64(base))
	go s.run()
	return s
}

// Stop halts the scheduler goroutine and waits for it to exit (promptly
// even mid-quiesce: the per-table maintenance is cancellable). Idempotent;
// a stopped scheduler stays stopped — start a new one instead.
func (s *Scheduler) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

// Interval returns the scheduler's current poll interval: the base while
// any structure is active, backed off exponentially (up to
// idleBackoffMax × base) while all are idle. Racy; for monitoring and
// tests.
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
// instead of polling Interval, whose base-rate window after activity is
// only a few milliseconds wide.
var testHookPass func(active bool, interval time.Duration)

// pass runs one maintenance round over every structure and reports
// whether any of them showed activity.
func (s *Scheduler) pass() bool {
	active := false
	for i := range s.entries {
		if s.service(&s.entries[i]) {
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
