package workload

import (
	"sync/atomic"
	"time"

	"github.com/optik-go/optik/internal/core"
	"github.com/optik-go/optik/internal/locks"
)

// LockConfig describes the Figure-5 experiment: every thread performs
// validated lock acquisitions on one shared lock — snapshot the version, do
// trivial optimistic work, lock+validate, commit, unlock — and we count the
// throughput of successful validations and the CAS attempts each one cost.
type LockConfig struct {
	Threads  int
	Duration time.Duration
}

// LockImpl names the Figure-5 contenders.
type LockImpl string

// Figure-5 lock implementations.
const (
	LockTTAS           LockImpl = "ttas"
	LockOptikVersioned LockImpl = "optik-versioned"
	LockOptikTicket    LockImpl = "optik-ticket"
)

// LockImpls lists the Figure-5 series in graph order.
var LockImpls = []LockImpl{LockTTAS, LockOptikTicket, LockOptikVersioned}

// LockResult aggregates one Figure-5 run.
type LockResult struct {
	// Validations is the number of successful validated acquisitions.
	Validations uint64
	// Mops is validated acquisitions per second, in millions.
	Mops float64
	// CASPerValidation is the average number of lock-word CAS attempts per
	// successful validation (Figure 5, right).
	CASPerValidation float64
	Elapsed          time.Duration
}

// RunLock drives the Figure-5 experiment for one implementation.
func RunLock(cfg LockConfig, impl LockImpl) LockResult {
	if cfg.Threads <= 0 || cfg.Duration <= 0 {
		panic("workload: Threads and Duration must be positive")
	}
	var (
		casCount   atomic.Uint64
		sharedWord atomic.Uint64 // the "protected data"
		ttas       locks.VersionedTTAS
		vlock      core.Lock
		tlock      core.TicketLock
	)
	m := window{threads: cfg.Threads, duration: cfg.Duration}.run(func(_ uint64, w *worker) uint64 {
		var validated, cas uint64
		for w.next() {
			switch impl {
			case LockTTAS:
				v := ttas.GetVersion()
				sharedWord.Load() // trivial optimistic work
				if ttas.LockAndValidate(v) {
					sharedWord.Add(1)
					ttas.UnlockCommit()
					validated++
				}
			case LockOptikVersioned:
				v := vlock.GetVersionWait()
				sharedWord.Load()
				cas++
				if vlock.TryLockVersion(v) {
					sharedWord.Add(1)
					vlock.Unlock()
					validated++
				}
			case LockOptikTicket:
				v := tlock.GetVersionWait()
				sharedWord.Load()
				cas++
				if tlock.TryLockVersion(v) {
					sharedWord.Add(1)
					tlock.Unlock()
					validated++
				}
			}
		}
		casCount.Add(cas)
		return validated
	})

	res := LockResult{Validations: m.ops, Mops: m.mops, Elapsed: m.elapsed}
	totalCAS := casCount.Load()
	if impl == LockTTAS {
		totalCAS = ttas.CASCount()
	}
	if res.Validations > 0 {
		res.CASPerValidation = float64(totalCAS) / float64(res.Validations)
	}
	return res
}
