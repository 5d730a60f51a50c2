// Memory governance for the string store: per-entry TTL and sampled
// eviction under a byte budget.
//
// The design extends OPTIK's decoupling of validation from reclamation to
// expiry. A TTL is an absolute deadline carried in the immutable value
// pair, and a reader judges it lazily right after the index hands the pair
// over — an expired pair is a miss, and the dead entry retires through the
// index's conditional-delete splice (DelIfValue, exact on the pair's
// identity under the lock owning the index entry, so a successor written
// since — always a different pair — is never mistaken for the entry that
// expired). The index core makes that splice available on every shard
// kind, so nothing here knows whether the store is hash-routed or sorted.
// Readers of TTL-less entries pay one predictable branch; nothing on the
// hot path ever blocks on the clock or the sweeper.
//
// Background governance rides the shared maintenance scheduler: each pass
// refreshes the coarse cached clock, advances the eviction epoch, sweeps a
// cursor quantum of the index for expired pairs (shard.Sweep), and — when
// a byte budget is configured and exceeded — evicts sampled entries (of K
// random residents drawn with shard.Sample, the one whose stamp says it is
// used least often, then least recently: see stampRead) until back under
// budget. Writers lend the same bounded hand inline when an insert finds
// bytes past the watermark (evictHand), so the budget holds even when a
// saturated box starves the scheduler goroutine.
//
// Everything is driven through one injectable clock (WithClock), so tests
// advance time by hand and every expiry behavior reproduces
// deterministically — no sleeps, no flakes. The default clock is a coarse
// time.Now cached per maintenance pass and refreshed by TTL-setting
// operations, so reads never pay a syscall.
package store

import (
	"math"
	"sync/atomic"
	"time"
)

const (
	// nsPerSec converts the TTL commands' seconds to the clock's ns.
	nsPerSec = int64(time.Second)
	// sweepQuantum bounds how many entries one maintenance pass examines
	// for expiry, and how many index positions (hash buckets, or entries
	// of a sorted shard) it walks to find them: the sweep is incremental by
	// design, the same bounded-help bargain as the table's migration
	// quanta.
	sweepQuantum = 2048
	// sweepPage is how many entries one shard.Sweep call hands over.
	sweepPage = 64
	// evictSampleK is the sample width of one eviction choice: evict the
	// least used of K random live entries. K = 4 costs two points of
	// hit_rate on cache_churn (docs/ARCHITECTURE.md), so 8 stays.
	evictSampleK = 8
	// evictProbeMax bounds the index probes spent collecting those K
	// live candidates. A hash probe reports one bucket — as many entries
	// as the load factor, on average — and skipping the empty ones instead
	// of counting them keeps the sample a genuine best-of-K over residents:
	// best-of-2 is barely better than random, and random eviction of a
	// zipfian resident set is what churns the warm tail into a refill
	// storm. A table resizes to keep its load above 1/4, but not below its
	// floor size, and a small store in a floor-sized table is far emptier
	// than that (150 entries in 2048 buckets in TestByteBudgetEviction);
	// 16·K probes still find K entries at a load of 1/16, and such a table
	// is small enough that an empty probe is a cache hit. A loaded table
	// stops at K after a handful of probes and never spends the rest.
	evictProbeMax = 16 * evictSampleK
	// evictMaxFails bounds consecutive fruitless eviction attempts (empty
	// probes or vanished entries) before a pass gives up; the next pass
	// resumes.
	evictMaxFails = 64
	// evictBusyMax caps successful evictions in one busy-pass hand, so
	// MaintainBusy stays bounded as its contract requires. The idle pass
	// and Quiesce run to budget (cancellable).
	evictBusyMax = 4096
	// epochPeriod is the target wall-clock width of one eviction epoch:
	// the write-path hands tick the epoch (CAS-gated, one winner) once
	// this much clock has passed since the last tick, so recency keeps
	// ~millisecond resolution even when a saturated box starves the
	// background scheduler that used to be the only epoch source.
	epochPeriod = int64(time.Millisecond)
	// aggressiveMaxFreq is the bar of the aggressive eviction mode: sampled
	// entries touched in at most this many epochs of late go in bulk. One
	// is what an insert is born with, so one-shot entries stop occupying a
	// budgeted store within a blink and anything read again since does not
	// qualify.
	aggressiveMaxFreq = 1
	// evictHandRounds bounds the write path's inline governance hand to
	// this many sample rounds per insert, keeping the worst-case SET
	// latency spike small while still reclaiming several entries' bytes
	// per entry inserted (each aggressive round retires up to
	// evictSampleK victims).
	evictHandRounds = 4
)

// nowFresh is the write-path clock for TTL-setting operations and TTL
// itself: a fresh time.Now (cached for subsequent reads), or the injected
// clock verbatim.
func (s *Strings) nowFresh() int64 {
	if s.clock != nil {
		return s.clock()
	}
	n := time.Now().UnixNano()
	s.cachedNow.Store(n)
	return n
}

// expiredNow is the lazy-expiry judgment of the read path and of the
// write paths' displaced-entry accounting. TTL-less pairs cost one
// branch, exactly as before. For a pair carrying a deadline the coarse
// cached clock answers first; a "still live" verdict is then confirmed
// against a fresh reading, because the cache trails real time by up to a
// whole (possibly backed-off, possibly starvation-stretched) maintenance
// interval — long enough on an idle store for a just-lapsed entry to be
// served as a hit. The fresh reading is deliberately not written back:
// concurrent readers of TTL'd keys must not ping-pong a shared cache
// line for a value the next pass refreshes anyway.
func (s *Strings) expiredNow(p *pair) bool {
	d := p.deadline()
	if d == 0 {
		return false
	}
	if s.clock != nil {
		return d <= s.clock()
	}
	return d <= s.cachedNow.Load() || d <= time.Now().UnixNano()
}

// deadlineFor converts a relative TTL in seconds to an absolute clock
// deadline, saturating on overflow. 0 is reserved for "no TTL", so a
// computed zero (or any non-positive deadline) clamps to 1 — an entry
// expired since the epoch.
func (s *Strings) deadlineFor(secs int64) int64 {
	now := s.nowFresh()
	if secs > (math.MaxInt64-now)/nsPerSec {
		return math.MaxInt64
	}
	if secs < (math.MinInt64+now)/nsPerSec {
		return 1
	}
	d := now + secs*nsPerSec
	if d <= 0 {
		d = 1
	}
	return d
}

// SetEX stores key→value with a TTL of secs seconds, returning true if it
// replaced a live value. Non-positive secs produce an already-expired
// entry (the server rejects them before they get here).
func (s *Strings) SetEX(key, value string, secs int64) bool {
	return s.SetEXHashed(HashKey(key), value, secs)
}

// SetEXHashed is SetEX for a pre-hashed key.
func (s *Strings) SetEXHashed(k uint64, value string, secs int64) bool {
	return s.set(k, value, s.deadlineFor(secs))
}

// Expire sets key's TTL to secs seconds from now, returning whether the
// key was live to receive it. Non-positive secs delete the key (Redis
// semantics), reporting whether it was present.
func (s *Strings) Expire(key string, secs int64) bool {
	return s.ExpireHashed(HashKey(key), secs)
}

// ExpireHashed is Expire for a pre-hashed key.
func (s *Strings) ExpireHashed(k uint64, secs int64) bool {
	if secs <= 0 {
		return s.DelHashed(k)
	}
	return s.ExpireAtHashed(k, s.deadlineFor(secs))
}

// ExpireAt sets key's TTL to an absolute clock deadline in nanoseconds,
// returning whether the key was live. Deadlines <= 0 clamp to 1 (expired
// since the epoch). This is the deterministic primitive the relative
// forms build on; the linearizability harness drives it directly.
func (s *Strings) ExpireAt(key string, deadline int64) bool {
	return s.ExpireAtHashed(HashKey(key), deadline)
}

// ExpireAtHashed is ExpireAt for a pre-hashed key.
func (s *Strings) ExpireAtHashed(k uint64, deadline int64) bool {
	return s.setDeadline(k, max(deadline, 1))
}

// Persist clears key's TTL, returning true only if the key was live and
// actually carried one.
func (s *Strings) Persist(key string) bool {
	return s.PersistHashed(HashKey(key))
}

// PersistHashed is Persist for a pre-hashed key.
func (s *Strings) PersistHashed(k uint64) bool {
	return s.setDeadline(k, 0)
}

// setDeadline re-arms (deadline > 0) or clears (0) k's TTL, reporting
// whether a live pair's deadline actually changed hands — clearing a TTL
// the pair never carried reports false. The loop is the OPTIK shape again:
// read the live pair, build a replacement carrying the new deadline (a
// fresh object — header and bytes are one allocation, so the value is
// copied, not shared), publish it only over the pair it read
// (ReplaceIfValue, exact on identity under the entry's lock). A lap that
// loses to a concurrent write restarts through the index. Expired pairs
// are never re-armed — the read retires them.
func (s *Strings) setDeadline(k uint64, deadline int64) bool {
	for {
		p := s.lookup(k)
		if p == nil || (deadline == 0 && p.deadline() == 0) {
			return false
		}
		if s.index.ReplaceIfValue(k, p, newPair(p.val(), deadline, p.touched.Load())) {
			return true
		}
	}
}

// TTL returns key's remaining time to live in seconds, rounded up: -2 if
// the key is absent (or expired), -1 if it is live with no TTL.
func (s *Strings) TTL(key string) int64 {
	return s.TTLHashed(HashKey(key))
}

// TTLHashed is TTL for a pre-hashed key. It reads a fresh clock — an
// operator asking "how long has this left" deserves better than the
// pass-coarse cache — and reads it BEFORE the lookup, so a pair the
// (later) lookup judges live always has time left at that reading.
func (s *Strings) TTLHashed(k uint64) int64 {
	now := s.nowFresh()
	p := s.lookup(k)
	if p == nil {
		return -2
	}
	d := p.deadline()
	if d == 0 {
		return -1
	}
	return (d - now + nsPerSec - 1) / nsPerSec
}

// BytesUsed returns the store's approximate live footprint in bytes.
func (s *Strings) BytesUsed() int64 { return s.bytes.Sum() }

// ByteBudget returns the configured budget (0 = unbounded).
func (s *Strings) ByteBudget() int64 { return s.budget }

// TTLStats snapshots the governance counters: entries retired lazily by
// readers, retired by the background sweep, and evicted for the budget.
func (s *Strings) TTLStats() (expiredLazy, expiredSwept, evicted uint64) {
	return s.expiredLazy.Load(), s.expiredSwept.Load(), s.evicted.Load()
}

// retire splices out an entry judged dead — expired, or sampled for
// eviction — counting it on counter: remove k from the index only while it
// still maps to exactly p (checked under the lock owning the entry; any
// write since built a new pair, so an unconditional delete here could
// kill a live successor). Losing the race means someone else already
// retired or replaced it, and credited its bytes.
func (s *Strings) retire(k uint64, p *pair, counter *atomic.Uint64) bool {
	if !s.index.DelIfValue(k, p) {
		return false
	}
	s.credit(k, p)
	counter.Add(1)
	return true
}

// ttlMaintainer adapts the store's governance pass to the shared
// scheduler's Maintainer contract.
type ttlMaintainer struct{ s *Strings }

// ActivitySample is the byte counter, which moves on any insert, delete,
// or size-changing overwrite. A same-size overwrite leaves it unchanged;
// that only upgrades the next pass from busy to idle, which does strictly
// more maintenance — safe by the Maintainer contract.
func (m ttlMaintainer) ActivitySample() uint64 {
	return uint64(m.s.BytesUsed())
}

// MaintainIdle runs the full governance pass, cancellable, evicting all
// the way to budget.
func (m ttlMaintainer) MaintainIdle(cancel <-chan struct{}) {
	m.s.maintainPass(cancel, 0)
}

// MaintainBusy lends the bounded hand: same sweep quantum, eviction
// capped per call so the pass never blocks a busy store's scheduler slot.
func (m ttlMaintainer) MaintainBusy() {
	m.s.maintainPass(nil, evictBusyMax)
}

// maintainPass is one governance round: refresh the coarse clock, tick
// the eviction epoch, sweep a cursor quantum of the index for expired
// pairs, then — over budget — evict sampled entries until under (or
// the busy cap / fail bound / cancel hits). maxEvict 0 means "to budget".
// maintMu serializes passes (the scheduler and a concurrent Quiesce may
// both drive one); the pass never blocks user operations.
func (s *Strings) maintainPass(cancel <-chan struct{}, maxEvict int) {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	now := s.nowFresh()
	epoch := s.epoch.Add(1)
	s.epochTick.Store(now)
	if !s.sweep(cancel, now) || s.budget == 0 {
		return
	}
	fails, done, tick := 0, 0, 0
	for s.BytesUsed() > s.budget && fails < evictMaxFails {
		if canceled(cancel) || (maxEvict > 0 && done >= maxEvict) {
			return
		}
		// Pressure-adaptive width: mildly over budget, evict the single
		// least used of the sample (classic best-of-K). More than ~6% over
		// — insertion pressure is outrunning one-at-a-time eviction — evict
		// every barely-used entry the sample turns up, trading victim
		// precision for the ~K× throughput that keeps bytes_used pinned
		// instead of drifting to the working-set size.
		aggressive := s.BytesUsed() > s.budget+s.budget/16
		n := s.evictSample(&s.sweepRng, now, epoch, aggressive)
		if n == 0 {
			fails++
			continue
		}
		done += n
		fails = 0
		// Long passes re-tick the epoch, so reads that arrive during a pass
		// that started a million evictions ago still count as new touches —
		// entries the traffic is actually using stay distinguishable from
		// the razed cold mass.
		if tick += n; tick >= sweepQuantum {
			tick = 0
			now = s.nowFresh()
			epoch = s.epoch.Add(1)
			s.epochTick.Store(now)
		}
	}
}

// sweep examines a cursor quantum of the index for expired pairs and
// retires them, reporting false if cancel cut it short. The cursor is a
// shard and that shard's Sweep cursor, and a lap moves through the shards
// in order; the quantum bounds the entries examined and, through the page
// size, the positions walked, so an empty store costs a pass no more than
// a full one. The page's pair slots are cleared after each call: the
// sweeper keeps no value alive.
func (s *Strings) sweep(cancel <-chan struct{}, now int64) bool {
	shards := s.index.shards
	defer clear(s.sweepPairs[:])
	for calls := 0; calls < sweepQuantum/sweepPage; calls++ {
		if canceled(cancel) {
			return false
		}
		n, next := shards[s.sweepShard].Sweep(s.sweepCursor, s.sweepKeys[:], s.sweepPairs[:])
		for i, p := range s.sweepPairs[:n] {
			if p.expiredAt(now) {
				s.retire(s.sweepKeys[i], p, &s.expiredSwept)
			}
		}
		if s.sweepCursor = next; next == 0 {
			s.sweepShard = (s.sweepShard + 1) % uint64(len(shards))
		}
	}
	return true
}

// evictSample runs one eviction round over K or more random live entries
// (spending at most evictProbeMax index probes to find them — a probe
// reports every entry of a random bucket, or the run after a random key,
// and one that lands on nothing is skipped, not counted, which keeps the
// sample a genuine best-of-K over residents) and returns how many entries
// it retired. Expired pairs met along the way retire immediately as
// swept. In the normal mode only the least used pair of the sample is
// evicted: lowest decayed touch count, ties to the longest untouched —
// where nothing is touched twice in a generation every count reads 0 or 1
// and the order is approx-LRU. In aggressive mode every sampled pair at or
// under aggressiveMaxFreq goes, the round ending early once the store is
// back at its budget (a round must not take a small store further under
// than it was over), with the best-of-K single victim as the fallback
// when the whole sample is in use (convergence must not stall). rng is
// caller-owned xorshift state — the sweeper passes its maintMu-guarded
// field, write-path hands a private local — so concurrent rounds never
// race; every retirement below it is a thread-safe conditional delete
// (retire), and the stamp only ever picks the candidate. The round
// allocates nothing: the shards hand each probe's entries back by value.
func (s *Strings) evictSample(rng *uint64, now int64, epoch uint32, aggressive bool) int {
	var best *pair
	var bestKey uint64
	var bestFreq, bestAge uint32
	evicted, live := 0, 0
probes:
	for i := 0; i < evictProbeMax && live < evictSampleK; i++ {
		*rng ^= *rng << 13
		*rng ^= *rng >> 7
		*rng ^= *rng << 17
		keys, pairs, n := s.index.sample(*rng)
		live += n
		for j, p := range pairs[:n] {
			k := keys[j]
			if p.expiredAt(now) {
				s.retire(k, p, &s.expiredSwept)
				continue
			}
			freq, age := stampRead(p.touched.Load(), epoch)
			if aggressive && freq <= aggressiveMaxFreq {
				if s.retire(k, p, &s.evicted) {
					if evicted++; s.BytesUsed() <= s.budget {
						break probes
					}
				}
				continue
			}
			if best == nil || freq < bestFreq || (freq == bestFreq && age > bestAge) {
				best, bestKey, bestFreq, bestAge = p, k, freq, age
			}
		}
	}
	if evicted == 0 && best != nil && s.retire(bestKey, best, &s.evicted) {
		evicted = 1
	}
	return evicted
}

// evictHand is the write path's bounded governance hand: an insert that
// observes bytes_used past the aggressive watermark lends a few eviction
// sample rounds inline, on the inserting goroutine's own time — the same
// bargain the hash table strikes for resize migration (a busy structure
// drives its own maintenance on the backs of its updates), and the same
// one Redis strikes at maxmemory (the command that crosses the watermark
// pays for the reclaim). The background passes alone cannot be trusted
// with the budget: on a saturated box the scheduler goroutine runs tens
// of milliseconds apart, and a hot write stream outgrows any bounded
// burst it could evict that rarely. The hand is deliberately lock-free —
// it must not queue behind (or be starved by) a running maintenance
// pass, because a pass fighting a hot write stream for one core is
// exactly when the writers' help is needed; each hand derives a private
// rng from one atomic bump and races the confirmed deletes safely.
func (s *Strings) evictHand() {
	if s.budget == 0 || s.BytesUsed() <= s.budget+s.budget/16 {
		return
	}
	rng := s.handRng.Add(0x9E3779B97F4A7C15)
	// A fresh clock, not the cached one: the hand is the component that
	// keeps the eviction epoch running when a saturated box starves the
	// background passes, and the cached clock only moves when those very
	// passes run — gating the tick on it would deadlock the epoch at
	// pass cadence and collapse every resident entry into one
	// indistinguishable stamp (eviction degrades to random, and
	// random eviction of a zipfian resident set is a refill storm). The
	// clock read is noise next to the probing below, and refreshing the
	// cache here also tightens lazy expiry while the passes are starved.
	now := s.nowFresh()
	if last := s.epochTick.Load(); now-last >= epochPeriod && s.epochTick.CompareAndSwap(last, now) {
		s.epoch.Add(1)
	}
	epoch := s.epoch.Load()
	for i := 0; i < evictHandRounds && s.BytesUsed() > s.budget; i++ {
		s.evictSample(&rng, now, epoch, true)
	}
}

// canceled is a non-blocking poll of the scheduler's stop channel.
func canceled(c <-chan struct{}) bool {
	if c == nil {
		return false
	}
	select {
	case <-c:
		return true
	default:
		return false
	}
}
