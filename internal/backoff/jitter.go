package backoff

import (
	"sync/atomic"
	"time"

	"github.com/optik-go/optik/internal/rng"
)

// Jittered is a duration-based exponential backoff with equal jitter, for
// waits that park a goroutine instead of spinning a core: a client retrying
// a `-ERR busy retry` reply, a dialer waiting out an overloaded listener.
// The spin-based Backoff above is the right tool inside a lock-free retry
// loop; Jittered is the right tool across a network round trip, where the
// contended resource recovers on millisecond scales and synchronized
// retries from many clients would re-create the very overload they are
// backing off from — the jitter decorrelates them.
//
// The zero value is ready to use with DefaultBase/DefaultMax. Not safe for
// concurrent use; each client owns its own.
type Jittered struct {
	// Base is the upper bound of the first window (default DefaultBase).
	Base time.Duration
	// Max caps the window growth (default DefaultMax).
	Max time.Duration

	cur time.Duration
	rng rng.Xorshift
	// seeded distinguishes "never used" from "explicitly seeded": distinct
	// instances must draw distinct jitter streams or a fleet of clients
	// rejected together would retry together, defeating the jitter.
	seeded bool
}

// Default window bounds: the busy reply means "the server is at its
// connection cap, and a slot frees on millisecond scales", so the first
// retry comes quickly and the cap stays well under human-visible latency.
const (
	DefaultBase = 2 * time.Millisecond
	DefaultMax  = 250 * time.Millisecond
)

// jitterSeq hands every unseeded Jittered a distinct stream without
// consulting the clock: a shared counter stepped by the golden ratio, the
// standard splitmix-style stream separator.
var jitterSeq atomic.Uint64

// Seed fixes the jitter stream (tests want reproducible draws).
func (j *Jittered) Seed(seed uint64) {
	j.rng.Seed(seed)
	j.seeded = true
}

// Reset returns the window to its initial size. Call it after a successful
// operation so the next overload starts from a short wait.
func (j *Jittered) Reset() { j.cur = 0 }

// Next returns the next wait: uniform in [window/2, window], with the
// window doubling from Base up to Max ("equal jitter" — the half floor
// guarantees forward progress while the random half decorrelates clients).
func (j *Jittered) Next() time.Duration {
	if !j.seeded {
		j.Seed(jitterSeq.Add(0x9E3779B97F4A7C15))
	}
	base, max := j.Base, j.Max
	if base <= 0 {
		base = DefaultBase
	}
	if max <= 0 {
		max = DefaultMax
	}
	if max < base {
		max = base
	}
	if j.cur < base {
		j.cur = base
	} else if j.cur *= 2; j.cur > max {
		j.cur = max
	}
	half := j.cur / 2
	return half + time.Duration(j.rng.Next()%uint64(half+1))
}

// Sleep parks the goroutine for Next().
func (j *Jittered) Sleep() { time.Sleep(j.Next()) }
