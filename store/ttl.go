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
// kind, so nothing here knows whether the store is hashed or sorted.
// Readers of TTL-less entries pay one predictable branch; nothing on the
// hot path ever blocks on the clock or the sweeper.
//
// Background governance rides the store's maintenance scheduler: each pass
// reads the clock, advances the eviction epoch, sweeps a
// cursor quantum of the index for expired pairs (shard.Sweep), and — when
// a byte budget is configured and exceeded — evicts sampled entries one
// raze round at a time (of K random residents drawn with shard.Sample,
// every one the read sketch counts at most one read for, or else the one
// it counts fewest for, then the one least recently touched: see
// evictSample) until back under budget.
// Writes lend rounds inline too (evictHand), so the budget holds even when
// a saturated box starves the scheduler goroutine, and there are two
// kinds of round. A scalar fresh insert that would take the store over
// its budget holds a duel before it is built: the newcomer is stored only
// if it has been read more often than the round's victim (TinyLFU
// admission), and a loser costs the index nothing. An MSET batch or a
// longer overwrite that leaves the store over its budget lends the same
// raze round the passes run.
//
// Everything is driven through one injectable clock (WithClock), so tests
// advance time by hand and every expiry behavior reproduces
// deterministically — no sleeps, no flakes. The default clock is
// time.Now, read only where a deadline is set or judged: a read of a
// TTL-less entry never reads it.
package store

import (
	"math"
	"sync/atomic"
	"time"

	"github.com/optik-go/optik/ds/hashmap"
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
	// evictProbeMax bounds the index probes spent collecting those
	// candidates. A hash probe reads a run of four buckets — four entries
	// per unit of load factor, on average — and a probe that lands on
	// nothing is skipped, not counted, which keeps the sample a genuine
	// best-of-K over residents: best-of-2 is barely better than random, and
	// random eviction of a zipfian resident set is what churns the warm tail
	// into a refill storm. A table resizes to keep its load above 1/4, but
	// not below its floor size, and a small store in a floor-sized table is
	// far emptier than that (150 entries in 2048 buckets in
	// TestByteBudgetEviction); 16·K probes still find K entries there, and
	// such a table is small enough that an empty probe is a cache hit. A
	// sorted probe reports one entry, so a sorted round spends at least K
	// probes. A loaded table stops after a handful of probes and never
	// spends the rest.
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
	// aggressiveMaxFreq is the raze bar: a raze round evicts every sampled
	// entry the read sketch counts at most this many reads for. One is what
	// a refill carries — the GET that missed — so one-shot entries stop
	// occupying a budgeted store within a blink and anything read again
	// since does not qualify. A victim above it counts on EvictedWarm.
	aggressiveMaxFreq = 1
)

// now reads the store's clock: the injected one, or time.Now.
func (s *Strings) now() int64 {
	if s.clock != nil {
		return s.clock()
	}
	return time.Now().UnixNano()
}

// expiredNow is the lazy-expiry judgment of the read path and of the
// write paths' displaced-entry accounting. TTL-less pairs cost one
// branch; a pair carrying a deadline is judged against one clock reading.
func (s *Strings) expiredNow(p *pair) bool {
	d := p.deadline()
	if d == 0 {
		return false
	}
	return d <= s.now()
}

// deadlineFor converts a relative TTL in seconds to an absolute clock
// deadline, saturating on overflow. 0 is reserved for "no TTL", so a
// computed zero (or any non-positive deadline) clamps to 1 — an entry
// expired since the epoch.
func (s *Strings) deadlineFor(secs int64) int64 {
	now := s.now()
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
		if deadline != 0 {
			s.storesDeadlines()
		}
		if s.index.ReplaceIfValue(k, p, newPair(p.val(), deadline, p.touched.Load())) {
			return true
		}
	}
}

// storesDeadlines marks the store as one whose entries may expire, so the
// passes sweep it from now on; a write calls it before it publishes a pair
// with a deadline. Only the first such write stores to the flag.
func (s *Strings) storesDeadlines() {
	if !s.deadlines.Load() {
		s.deadlines.Store(true)
	}
}

// TTL returns key's remaining time to live in seconds, rounded up: -2 if
// the key is absent (or expired), -1 if it is live with no TTL.
func (s *Strings) TTL(key string) int64 {
	return s.TTLHashed(HashKey(key))
}

// TTLHashed is TTL for a pre-hashed key. It reads the clock BEFORE the
// lookup, so a pair the (later) lookup judges live always has time left
// at that reading.
func (s *Strings) TTLHashed(k uint64) int64 {
	now := s.now()
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

// WritesElided returns how many writes restated the value their key
// already held and were decided without storing (see put).
func (s *Strings) WritesElided() uint64 { return uint64(max(s.elided.Sum(), 0)) }

// EvictedWarm returns how many eviction victims were above the raze bar:
// entries read more than once of late, evicted because the sample that
// chose them held nothing colder (or, for a fresh insert turned away,
// because the sample's victim was read at least as often).
func (s *Strings) EvictedWarm() uint64 { return uint64(max(s.warm.Sum(), 0)) }

// EvictedNew returns how many scalar fresh inserts the budget turned
// away before storing them: a newcomer that lost its duel with the
// sample's victim, or whose value alone outweighs the budget. Each
// counts as an eviction in TTLStats' evicted too, as a write evicted at
// once would.
func (s *Strings) EvictedNew() uint64 { return s.evictedNew.Load() }

// TTLStats snapshots the governance counters: entries retired lazily by
// readers, retired by the background sweep, and evicted for the budget.
func (s *Strings) TTLStats() (expiredLazy, expiredSwept, evicted uint64) {
	return s.expiredLazy.Load(), s.expiredSwept.Load(), s.evicted.Load()
}

// retire splices out an entry judged dead — expired, or sampled for
// eviction — counting it on counter: remove k from the index only while it
// still maps to exactly p (checked under the lock owning the entry; any
// write that stored since built a new pair, so an unconditional delete
// here could kill a live successor). Losing the race means someone else
// already retired or replaced it, and credited its bytes.
func (s *Strings) retire(k uint64, p *pair, counter *atomic.Uint64) bool {
	if !s.index.DelIfValue(k, p) {
		return false
	}
	s.credit(k, p.size())
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

// maintainPass is one governance round: read the clock, tick
// the eviction epoch, sweep a cursor quantum of the index for expired
// pairs — once any write has stored a deadline: a store that never has
// holds nothing to expire — then, over budget, run raze rounds
// (evictSample) until under (or the busy cap / fail bound / cancel hits).
// maxEvict 0 means "to budget".
// maintMu serializes passes (the scheduler and a concurrent Quiesce may
// both drive one); the pass never blocks user operations.
func (s *Strings) maintainPass(cancel <-chan struct{}, maxEvict int) {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	now := s.now()
	epoch := s.epoch.Add(1)
	s.epochTick.Store(now)
	if (s.deadlines.Load() && !s.sweep(cancel, now)) || s.budget == 0 {
		return
	}
	fails, done, tick := 0, 0, 0
	for s.BytesUsed() > s.budget && fails < evictMaxFails {
		if canceled(cancel) || (maxEvict > 0 && done >= maxEvict) {
			return
		}
		n := s.evictSample(&s.sweepRng, now, epoch, 0)
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
			now = s.now()
			epoch = s.epoch.Add(1)
			s.epochTick.Store(now)
		}
	}
}

// sweep examines a cursor quantum of the index for expired pairs and
// retires them, reporting false if cancel cut it short. The cursor is the
// shard's Sweep cursor; the quantum bounds the entries examined and,
// through the page size, the positions walked, so an empty store costs a
// pass no more than a full one. The page's pair slots are cleared after
// each call: the sweeper keeps no value alive.
func (s *Strings) sweep(cancel <-chan struct{}, now int64) bool {
	defer clear(s.sweepPairs[:])
	for calls := 0; calls < sweepQuantum/sweepPage; calls++ {
		if canceled(cancel) {
			return false
		}
		var n int
		n, s.sweepCursor = s.index.shard.Sweep(s.sweepCursor, s.sweepKeys[:], s.sweepPairs[:])
		for i, p := range s.sweepPairs[:n] {
			if p.expiredAt(now) {
				s.retire(s.sweepKeys[i], p, &s.expiredSwept)
			}
		}
	}
	return true
}

// evictSample runs one eviction round over K random live entries
// (spending at most evictProbeMax index probes to find them — a probe
// reports the entries of a run of random buckets, or the successor of a
// random key, and one that lands on nothing is skipped, not counted,
// which keeps the sample a genuine best-of-K over residents) and returns
// how many entries it retired. A candidate is judged by its key first:
// one that cannot displace the best so far — read more often, or as often
// when both were read at all — is passed over without its pair being read
// (in a raze round the best is always read more often than any entry the
// round razes). A pair that is read retires on the spot, as swept, if it
// has expired. The round has one of two kinds, and k picks it.
//
// k 0 is a raze round, the one every write but a scalar fresh insert
// lends, and the background passes' round: it evicts every sampled pair
// read at most aggressiveMaxFreq times, ending early once the store is
// back at its budget (a round must not take a small store further under
// than it was over), with the least used pair of the sample as the
// fallback when the whole sample is in use (convergence must not stall) —
// fewest reads on the sketch, ties to the longest untouched; where nothing
// has been read every count is 0 and the order is approx-LRU. A pair
// another round retired first is not one of its K: concurrent bulk loads'
// rounds draw the same entries of a sorted store often enough that
// counting them would let the loads drift past the budget
// (TestBulkLoadHoldsBudget).
//
// Any other k is a duel, held before a fresh insert of k is built: the
// least used pair of the sample is its one victim, and the newcomer is
// admitted only if the sketch counts strictly more reads for k than for
// the victim, or if both count none — then nothing has been read and
// recency decides, and the newcomer would be the freshest entry there is.
// An admitted newcomer retires the victim and the round returns 1, or 0
// when the sample held no victim or another round retired it first. A
// newcomer turned away retires nothing, and the round returns -1.
// Victims above the raze bar, a turned-away newcomer's count included,
// count on EvictedWarm.
//
// rng is caller-owned xorshift state — the sweeper passes its
// maintMu-guarded field, write-path hands a private local — so concurrent
// rounds never race; every retirement below it is a thread-safe
// conditional delete (retire), and the sketch and the stamp only ever pick
// the candidate. The round allocates nothing: the shard hands each probe's
// entries back by value.
func (s *Strings) evictSample(rng *uint64, now int64, epoch uint32, k uint64) int {
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
		var freqs [hashmap.SampleWidth]uint32
		s.sketch.counts(keys[:n], freqs[:n])
		for j, p := range pairs[:n] {
			pk, freq := keys[j], freqs[j]
			if best != nil && (freq > bestFreq || freq == bestFreq && freq != 0) {
				continue // neither a victim nor razed: its pair is not read
			}
			if p.expiredAt(now) {
				s.retire(pk, p, &s.expiredSwept)
				continue
			}
			if k == 0 && freq <= aggressiveMaxFreq {
				if !s.retire(pk, p, &s.evicted) {
					live-- // another round took it: no resident of this sample
				} else if evicted++; s.BytesUsed() <= s.budget {
					break probes
				}
				continue
			}
			if age := p.age(epoch); best == nil || freq < bestFreq || (freq == bestFreq && age > bestAge) {
				best, bestKey, bestFreq, bestAge = p, pk, freq, age
			}
		}
	}
	if evicted != 0 || best == nil {
		return evicted
	}
	if k != 0 {
		if nf := s.sketch.count(k); nf <= bestFreq && (nf != 0 || bestFreq != 0) {
			if nf > aggressiveMaxFreq {
				s.warm.Add(k, 1)
			}
			return -1
		}
	}
	if !s.retire(bestKey, best, &s.evicted) {
		return 0
	}
	if bestFreq > aggressiveMaxFreq {
		s.warm.Add(bestKey, 1)
	}
	return 1
}

// evictHand is the write path's governance hand: a write lends one
// eviction round inline, on the writing goroutine's own time — the same
// bargain the hash table strikes for resize migration (a busy structure
// drives its own maintenance on the backs of its updates), and the same
// one Redis strikes at maxmemory (the command that crosses the limit pays
// for the reclaim). The background passes alone cannot be trusted with the
// budget: on a saturated box the scheduler goroutine runs tens of
// milliseconds apart, and a hot write stream outgrows any bounded burst it
// could evict that rarely. A scalar fresh insert that would take the store
// over its budget passes its key before it builds anything (Strings.set):
// its round is a duel (evictSample), and the hand reports whether the
// newcomer won it. So every such insert evicts one entry, a colder
// resident or, by never being stored, itself, and a stream of them holds
// the budget without taking the store under it, where another writer's
// insert would skip its own duel. Any other write passes 0, once it has
// left the store over its budget, and its round razes: an MSET batch lends
// one such round per evictSampleK fresh keys (MSetHashed), which a bulk
// load of unread keys needs to evict as fast as it inserts. The hand is
// deliberately lock-free — it must not queue behind (or be starved by) a
// running maintenance pass, because a pass fighting a hot write stream for
// one core is exactly when the writers' help is needed; each hand derives
// a private rng from one atomic bump and races the confirmed deletes
// safely.
func (s *Strings) evictHand(k uint64) bool {
	rng := s.handRng.Add(0x9E3779B97F4A7C15)
	// The hand reads the clock itself: it is the component that keeps
	// the eviction epoch running when a saturated box starves the
	// background passes — a clock only those passes moved would stall the
	// epoch at pass cadence and collapse every resident entry into one
	// indistinguishable stamp (eviction among equal counts degrades to
	// random). The clock read is noise next to the probing below.
	now := s.now()
	if last := s.epochTick.Load(); now-last >= epochPeriod && s.epochTick.CompareAndSwap(last, now) {
		s.epoch.Add(1)
	}
	return s.evictSample(&rng, now, s.epoch.Load(), k) >= 0
}

// fits reports whether n more bytes leave the store within its budget.
func (s *Strings) fits(n int64) bool { return s.budget == 0 || s.BytesUsed()+n <= s.budget }

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
