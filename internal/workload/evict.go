// The eviction scenario: the string store serving a cache-style stream
// whose working set does not fit the configured byte budget. It drives
// TestEvictSmoke and TestEvictSoakHoldsBudget, the only checks that the
// budget holds under concurrent writers; the served cache's hit rate is
// judged by bench/'s cache_churn workload. It exercises the governance
// loop — the maintenance passes and write-path hands that sweep expired
// entries and evict sampled ones, least frequently used first and least
// recently touched among equals (store/ttl.go) — under sustained churn:
// the questions are whether bytes_used holds at the budget while the
// write traffic pushes past it, and how much hit rate that victim
// selection gives up against an ungoverned store holding everything.
// Misses refill their key (read-through), as a cache client would, so
// the store is always under insertion pressure at the budget boundary.
//
// Keys follow YCSB's hotspot distribution — a hot fraction of the
// population receives almost all operations, the cold remainder is
// drawn uniformly — rather than the zipfian the throughput workloads
// use. A budget-bounded cache can only ever serve the traffic share its
// resident set captures, and zipfian mass at the YCSB skew is
// logarithmic in rank: a store holding the top quarter of a zipfian
// population tops out near 87% of draws no matter how perfect its
// victim selection, which would measure the key distribution, not the
// eviction policy. The hotspot shape puts the achievable ceiling (the
// hot share) well above the acceptance bar, so the measured gap to the
// baseline is the policy's own churn — hot entries wrongly razed and
// refilled — and nothing else.

package workload

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/optik-go/optik/internal/rng"
	"github.com/optik-go/optik/store"
)

// EvictConfig describes one eviction run.
type EvictConfig struct {
	Threads int
	// Duration of the measured run.
	Duration time.Duration
	// Keys is the key population (the working set). Its byte footprint —
	// Keys × (ValueLen + per-entry overhead) — should exceed Budget for
	// the run to measure anything; WorkingSetBytes reports it.
	Keys uint64
	// ValueLen is the value size; every key stores a value of this length.
	ValueLen int
	// Budget is the store's byte budget; 0 runs the ungoverned baseline
	// the budgeted run's hit rate is read against.
	Budget int64
	// SetPct is the percentage of blind SETs; the rest are GETs, and a GET
	// that misses refills its key (counted as the miss it was, plus a
	// set). Default 10.
	SetPct int
	// TTLPct is the percentage of sets issued as SETEX with TTLSecs, so
	// swept expiry runs alongside eviction; default 0 (no TTL traffic).
	TTLPct int
	// TTLSecs is the SETEX lifetime (default 1; real clock — this driver
	// is for soaks and benchmarks, not unit tests).
	TTLSecs int64
}

// The hotspot shape: hotKeyPct percent of the key population forms the
// hot set (with a budget of a quarter of the working set it fits
// residency with room for cold churn), and hotOpPct percent of operations
// are drawn uniformly from it, the rest uniformly from the cold remainder.
const (
	hotKeyPct = 20
	hotOpPct  = 98
)

// WorkingSetBytes is the byte footprint the key population pins when
// fully resident, in the store's own accounting units.
func (c EvictConfig) WorkingSetBytes() int64 {
	return int64(c.Keys) * (int64(c.ValueLen) + store.PairOverhead)
}

// EvictResult aggregates one eviction run.
type EvictResult struct {
	// Ops counts key operations; refills count separately in Refills.
	Ops uint64
	// HitRate is the share of GETs that found their key; every miss is
	// refilled, and Refills counts them.
	HitRate float64
	Refills uint64
	// BytesMax is the largest bytes_used sampled (every millisecond)
	// across the measured window; BytesFinal is the post-quiesce value.
	// The governance claim is BytesMax staying within a few percent of
	// Budget while the working set is a multiple of it.
	BytesMax, BytesFinal int64
	// Evicted/ExpiredLazy/ExpiredSwept are the store's governance
	// counters over the whole run (prefill included).
	Evicted, ExpiredLazy, ExpiredSwept uint64
	// FinalLen is the store's Len after the final quiesce.
	FinalLen int
}

// mixKey spreads the zipfian draws (small dense integers) over the hashed
// key space the string store's *Hashed API expects — splitmix64's
// finalizer, the same job HashKey does for wire keys.
func mixKey(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xBF58476D1CE4E5B9
	k ^= k >> 27
	k *= 0x94D049BB133111EB
	k ^= k >> 31
	if k == 0 || k == ^uint64(0) {
		return 1
	}
	return k
}

// RunEvict drives an eviction workload against a fresh string store and
// returns the aggregate result. The whole population is prefilled first
// (a budgeted store immediately evicts down to budget on the prefill
// quiesce), so the baseline starts fully resident and the budgeted run
// starts governed.
func RunEvict(cfg EvictConfig) EvictResult {
	if cfg.Threads <= 0 || cfg.Keys == 0 || cfg.Duration <= 0 {
		panic("workload: Threads, Keys and Duration must be positive")
	}
	if cfg.ValueLen <= 0 {
		cfg.ValueLen = 128
	}
	if cfg.SetPct == 0 {
		cfg.SetPct = 10
	}
	if cfg.TTLSecs <= 0 {
		cfg.TTLSecs = 1
	}
	const seed = 0x45564943 // "EVIC"
	opts := []store.Option{
		store.WithShardBuckets(1024),
		store.WithMaintenanceInterval(time.Millisecond),
	}
	if cfg.Budget > 0 {
		opts = append(opts, store.WithByteBudget(cfg.Budget))
	}
	s := store.NewStrings(opts...)
	defer s.Close()
	val := strings.Repeat("v", cfg.ValueLen)

	for k := uint64(1); k <= cfg.Keys; k++ {
		s.SetHashed(mixKey(k), val)
	}
	s.Quiesce()
	runtime.GC()

	var (
		stop     atomic.Bool
		wg       sync.WaitGroup
		ready    sync.WaitGroup
		mu       sync.Mutex
		total    EvictResult
		gets     uint64
		hits     uint64
		sampleWg sync.WaitGroup
	)

	// The bytes_used sampler: the governance claim lives in its max, not
	// in any single end-of-run reading.
	var bytesMax atomic.Int64
	sampleWg.Add(1)
	go func() {
		defer sampleWg.Done()
		for !stop.Load() {
			if b := s.BytesUsed(); b > bytesMax.Load() {
				bytesMax.Store(b)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	started := make(chan struct{})
	setCut := uint64(cfg.SetPct)
	hotKeys := cfg.Keys * hotKeyPct / 100
	if hotKeys == 0 {
		hotKeys = 1
	}
	coldKeys := cfg.Keys - hotKeys
	if coldKeys == 0 {
		coldKeys = 1
	}
	for t := 0; t < cfg.Threads; t++ {
		wg.Add(1)
		ready.Add(1)
		go func(id uint64) {
			defer wg.Done()
			keyr := rng.NewXorshift(seed + id*0x9E3779B9)
			opr := rng.NewXorshift(seed ^ (id+1)*0xBF58476D1CE4E5B9)
			var myGets, myHits, refills, ops uint64
			ready.Done()
			<-started
			for it := 0; ; it++ {
				if it&31 == 0 && stop.Load() {
					break
				}
				// Hotspot draw: hot keys are 1..hotKeys, cold keys the
				// remainder, both uniform within their set.
				k := keyr.Next()
				if k%100 < hotOpPct {
					k = 1 + (k/100)%hotKeys
				} else {
					k = 1 + hotKeys + (k/100)%coldKeys
				}
				key := mixKey(k)
				if opr.Next()%100 < setCut {
					if cfg.TTLPct > 0 && int(opr.Next()%100) < cfg.TTLPct {
						s.SetEXHashed(key, val, cfg.TTLSecs)
					} else {
						s.SetHashed(key, val)
					}
				} else {
					myGets++
					if _, ok := s.GetHashed(key); ok {
						myHits++
					} else {
						// Read-through refill: a cache miss is a fetch
						// plus a store, which is exactly the insertion
						// pressure that makes the budget loop work.
						s.SetHashed(key, val)
						refills++
					}
				}
				ops++
			}
			mu.Lock()
			total.Ops += ops
			gets += myGets
			hits += myHits
			total.Refills += refills
			mu.Unlock()
		}(uint64(t))
	}
	ready.Wait()
	close(started)
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	sampleWg.Wait()

	s.Quiesce()
	if gets > 0 {
		total.HitRate = float64(hits) / float64(gets)
	}
	total.BytesMax = bytesMax.Load()
	total.BytesFinal = s.BytesUsed()
	total.ExpiredLazy, total.ExpiredSwept, total.Evicted = s.TTLStats()
	total.FinalLen = s.Len()
	return total
}
