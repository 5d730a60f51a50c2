// The server scenario: the sharded store serving a cache-style request
// stream. Unlike the set workloads (fixed element count, strict set
// semantics), this drives the store's own surface — GET / upsert-SET /
// DEL over a zipfian key population, with a configurable fraction of the
// requests arriving as multi-key batches (MGet/MSet/MDel), the request
// shape real caches and their pipelined clients produce. Per-op latency
// rides in the same 16K rings as every other workload, split by request
// kind, with batched requests sampled per key so single and batched
// latencies compare directly.

package workload

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/optik-go/optik/internal/rng"
	"github.com/optik-go/optik/internal/stats"
	"github.com/optik-go/optik/store"
)

// ServerConfig describes one server run.
type ServerConfig struct {
	Threads int
	// Duration of the measured run.
	Duration time.Duration
	// InitialSize is the prefilled element count; the key range defaults
	// to twice this, so roughly half the GETs miss and SETs split between
	// fresh inserts and replacements — sustained churn, not a frozen set.
	InitialSize int
	// KeyRange overrides the default 2×InitialSize range when positive.
	KeyRange uint64
	// SetPct and DelPct are the percentages of SET and DEL requests; the
	// rest are GETs. Defaults (when both are 0): 8% SET, 2% DEL.
	SetPct, DelPct int
	// BatchPct is the percentage of requests issued as BatchSize-key
	// batches through MGet/MSet/MDel rather than one key at a time.
	BatchPct int
	// BatchSize is the keys per batch (default 16).
	BatchSize int
	// Uniform selects uniform keys; the default is the paper's zipfian
	// (a = 0.9) — a served cache sees skew, not uniformity.
	Uniform bool
	// Seed makes runs reproducible; 0 picks a fixed default.
	Seed uint64
	// SampleLatency enables the per-thread latency rings.
	SampleLatency bool
}

// ServerResult aggregates one server run.
type ServerResult struct {
	// Ops counts individual key operations (a batch of 16 counts 16).
	Ops uint64
	// Mops is throughput in million key operations per second.
	Mops float64
	// Elapsed is the measured wall-clock duration.
	Elapsed time.Duration
	// Gets/Sets/Dels count key operations per kind; Hits counts GETs that
	// found their key.
	Gets, Sets, Dels, Hits uint64
	// HitRate is Hits/Gets.
	HitRate float64
	// Net is the measured phase's fresh inserts minus successful deletes;
	// once quiescent, PrefillLen + Net must equal FinalLen exactly.
	Net int64
	// PrefillLen is the store's Len when the measured window opened:
	// exactly InitialSize.
	PrefillLen int
	// FinalLen is the store's Len after the final quiesce.
	FinalLen int
	// FinalBuckets and Resizes aggregate the shards after the run.
	FinalBuckets, Resizes int
	// NodesRetired/NodesReclaimed/NodesReused are the fleet's chain-node
	// reclamation counters.
	NodesRetired, NodesReclaimed, NodesReused uint64
	// Latency summarizes every sampled key operation (ns); zero without
	// SampleLatency.
	Latency stats.Summary
	// GetLatency/SetLatency/DelLatency split Latency by kind (single-key
	// requests only).
	GetLatency, SetLatency, DelLatency stats.Summary
	// BatchLatency summarizes batched requests per key: batch time divided
	// by batch size, so the amortization is directly comparable to the
	// single-key summaries.
	BatchLatency stats.Summary
	// MaxProcs records runtime.GOMAXPROCS at measurement time: throughput
	// and latency rows are only comparable across machines (or CI runner
	// generations) alongside the parallelism they actually had.
	MaxProcs int
}

// RunServer drives a server workload against a fresh store from factory
// and returns the aggregate result. The factory builds the store so shard
// count and maintenance mode stay with the caller; RunServer closes it
// after the final accounting.
func RunServer(cfg ServerConfig, factory func() *store.Store) ServerResult {
	if cfg.Threads <= 0 || cfg.InitialSize <= 0 || cfg.Duration <= 0 {
		panic("workload: Threads, InitialSize and Duration must be positive")
	}
	if cfg.SetPct == 0 && cfg.DelPct == 0 {
		cfg.SetPct, cfg.DelPct = 8, 2
	}
	if cfg.SetPct+cfg.DelPct > 100 || cfg.SetPct < 0 || cfg.DelPct < 0 {
		panic("workload: SetPct+DelPct must fit in [0, 100]")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x53455256 // "SERV"
	}
	keyRange := cfg.KeyRange
	if keyRange == 0 {
		keyRange = uint64(2 * cfg.InitialSize)
	}
	if keyRange < uint64(cfg.InitialSize) {
		// The prefill inserts InitialSize distinct keys; a smaller range
		// would spin forever instead of failing loudly.
		panic("workload: KeyRange must be >= InitialSize")
	}
	st := factory()
	defer st.Close()
	// Prefill to InitialSize live keys, in MSet batches sized to the
	// remaining deficit: a batch can only insert fewer keys than it
	// carries (duplicates upsert in place), never more, so the store
	// lands on exactly InitialSize.
	pre := rng.NewXorshift(seed)
	preKeys := make([]uint64, 0, 512)
	preVals := make([]uint64, 512)
	for i := range preVals {
		preVals[i] = 1
	}
	base := st.Len()
	for base < cfg.InitialSize {
		n := cfg.InitialSize - base
		if n > 512 {
			n = 512
		}
		preKeys = preKeys[:n]
		for i := range preKeys {
			preKeys[i] = pre.Intn(keyRange) + 1
		}
		base += st.MSet(preKeys, preVals[:n])
	}
	runtime.GC()

	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		ready   sync.WaitGroup
		mu      sync.Mutex
		total   ServerResult
		allS    []float64
		getS    []float64
		setS    []float64
		delS    []float64
		batchS  []float64
		started = make(chan struct{})
	)
	setCut := uint64(cfg.SetPct)
	delCut := uint64(cfg.SetPct + cfg.DelPct)
	for t := 0; t < cfg.Threads; t++ {
		wg.Add(1)
		ready.Add(1)
		go func(id uint64) {
			defer wg.Done()
			// Per-thread setup stays outside the measured window: a zipfian
			// generator's zeta precomputation over a large key range can
			// rival a short run's whole duration (particularly under the
			// race detector), and a window that opens before the workers
			// exist measures nothing.
			var dist rng.Distribution
			if cfg.Uniform {
				dist = rng.NewUniform(keyRange, seed+id*0x9E3779B9)
			} else {
				dist = rng.NewZipf(keyRange, rng.DefaultZipfTheta, true, seed+id*0x9E3779B9)
			}
			opr := rng.NewXorshift(seed ^ (id+1)*0xBF58476D1CE4E5B9)
			keys := make([]uint64, cfg.BatchSize)
			vals := make([]uint64, cfg.BatchSize)
			found := make([]bool, cfg.BatchSize)
			var gets, sets, dels, hits, ops uint64
			var net int64
			var allR, getR, setR, delR, batchR ring
			ready.Done()
			<-started
			for it := 0; ; it++ {
				if it&31 == 0 && stop.Load() {
					break
				}
				roll := opr.Next() % 100
				batched := int(opr.Next()%100) < cfg.BatchPct
				var begin time.Time
				if cfg.SampleLatency {
					begin = time.Now()
				}
				if batched {
					for i := range keys {
						keys[i] = dist.NextKey()
					}
					switch {
					case roll < setCut:
						for i := range vals {
							vals[i] = id
						}
						ins := st.MSet(keys, vals)
						net += int64(ins)
						sets += uint64(len(keys))
					case roll < delCut:
						net -= int64(st.MDel(keys))
						dels += uint64(len(keys))
					default:
						st.MGet(keys, vals, found)
						for i := range found {
							if found[i] {
								hits++
							}
						}
						gets += uint64(len(keys))
					}
					ops += uint64(len(keys))
					if cfg.SampleLatency {
						perKey := float64(time.Since(begin).Nanoseconds()) / float64(len(keys))
						batchR.add(perKey)
						allR.add(perKey)
					}
					continue
				}
				key := dist.NextKey()
				switch {
				case roll < setCut:
					if _, replaced := st.Set(key, id); !replaced {
						net++
					}
					sets++
				case roll < delCut:
					if _, ok := st.Del(key); ok {
						net--
					}
					dels++
				default:
					if _, ok := st.Get(key); ok {
						hits++
					}
					gets++
				}
				ops++
				if cfg.SampleLatency {
					ns := float64(time.Since(begin).Nanoseconds())
					allR.add(ns)
					switch {
					case roll < setCut:
						setR.add(ns)
					case roll < delCut:
						delR.add(ns)
					default:
						getR.add(ns)
					}
				}
			}
			mu.Lock()
			total.Ops += ops
			total.Gets += gets
			total.Sets += sets
			total.Dels += dels
			total.Hits += hits
			total.Net += net
			allS = append(allS, allR.buf...)
			getS = append(getS, getR.buf...)
			setS = append(setS, setR.buf...)
			delS = append(delS, delR.buf...)
			batchS = append(batchS, batchR.buf...)
			mu.Unlock()
		}(uint64(t))
	}
	ready.Wait()
	begin := time.Now()
	close(started)
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	total.Elapsed = time.Since(begin)

	st.Quiesce()
	total.MaxProcs = runtime.GOMAXPROCS(0)
	total.Mops = float64(total.Ops) / total.Elapsed.Seconds() / 1e6
	if total.Gets > 0 {
		total.HitRate = float64(total.Hits) / float64(total.Gets)
	}
	total.PrefillLen = base
	total.FinalLen = st.Len()
	total.FinalBuckets = st.Buckets()
	total.Resizes = st.Resizes()
	total.NodesRetired, total.NodesReclaimed, total.NodesReused = st.ReclaimStats()
	if cfg.SampleLatency {
		total.Latency = stats.Summarize(allS)
		total.GetLatency = stats.Summarize(getS)
		total.SetLatency = stats.Summarize(setS)
		total.DelLatency = stats.Summarize(delS)
		total.BatchLatency = stats.Summarize(batchS)
	}
	return total
}
