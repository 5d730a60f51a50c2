// The server scenario: the hash store serving a cache-style request
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
	// InitialSize is the prefilled element count; keys are drawn from
	// twice this range, so roughly half the GETs miss and SETs split
	// between fresh inserts and replacements — sustained churn, not a
	// frozen set.
	InitialSize int
	// SetPct and DelPct are the percentages of SET and DEL requests; the
	// rest are GETs. Defaults (when both are 0): 8% SET, 2% DEL.
	SetPct, DelPct int
	// BatchPct is the percentage of requests issued as BatchSize-key
	// batches through MGet/MSet/MDel rather than one key at a time.
	BatchPct int
	// BatchSize is the keys per batch (default 16).
	BatchSize int
	// SampleLatency enables the per-thread latency rings.
	SampleLatency bool
}

// The server run's latency rings.
const (
	srvAll = iota
	srvGet
	srvSet
	srvDel
	srvBatch
)

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
	// FinalBuckets and Resizes read the store after the run.
	FinalBuckets, Resizes int
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
// and returns the aggregate result. The factory builds the store so its
// provisioning and maintenance mode stay with the caller; RunServer closes it
// after the final accounting.
func RunServer(cfg ServerConfig, factory func() *store.Store[uint64]) ServerResult {
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
	const seed = 0x53455256 // "SERV"
	keyRange := uint64(2 * cfg.InitialSize)
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

	var (
		mu    sync.Mutex
		total ServerResult
	)
	setCut := uint64(cfg.SetPct)
	delCut := uint64(cfg.SetPct + cfg.DelPct)
	m := window{threads: cfg.Threads, duration: cfg.Duration}.run(func(id uint64, w *worker) uint64 {
		dist := newDist(keyRange, true, seed+id*0x9E3779B9)
		opr := rng.NewXorshift(seed ^ (id+1)*0xBF58476D1CE4E5B9)
		keys := make([]uint64, cfg.BatchSize)
		vals := make([]uint64, cfg.BatchSize)
		found := make([]bool, cfg.BatchSize)
		var my ServerResult
		for w.next() {
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
					my.Net += int64(st.MSet(keys, vals))
					my.Sets += uint64(len(keys))
				case roll < delCut:
					my.Net -= int64(st.MDel(keys))
					my.Dels += uint64(len(keys))
				default:
					st.MGet(keys, vals, found)
					for i := range found {
						if found[i] {
							my.Hits++
						}
					}
					my.Gets += uint64(len(keys))
				}
				my.Ops += uint64(len(keys))
				if cfg.SampleLatency {
					perKey := float64(time.Since(begin).Nanoseconds()) / float64(len(keys))
					w.lat[srvBatch].add(perKey)
					w.lat[srvAll].add(perKey)
				}
				continue
			}
			key := dist.NextKey()
			kind := srvGet
			switch {
			case roll < setCut:
				kind = srvSet
				if _, replaced := st.Set(key, id); !replaced {
					my.Net++
				}
				my.Sets++
			case roll < delCut:
				kind = srvDel
				if _, ok := st.Del(key); ok {
					my.Net--
				}
				my.Dels++
			default:
				if _, ok := st.Get(key); ok {
					my.Hits++
				}
				my.Gets++
			}
			my.Ops++
			if cfg.SampleLatency {
				ns := float64(time.Since(begin).Nanoseconds())
				w.lat[srvAll].add(ns)
				w.lat[kind].add(ns)
			}
		}
		mu.Lock()
		total.Gets += my.Gets
		total.Sets += my.Sets
		total.Dels += my.Dels
		total.Hits += my.Hits
		total.Net += my.Net
		mu.Unlock()
		return my.Ops
	})
	total.Ops, total.Mops, total.Elapsed = m.ops, m.mops, m.elapsed

	st.Quiesce()
	total.MaxProcs = runtime.GOMAXPROCS(0)
	if total.Gets > 0 {
		total.HitRate = float64(total.Hits) / float64(total.Gets)
	}
	total.PrefillLen = base
	total.FinalLen = st.Len()
	total.FinalBuckets = st.Buckets()
	total.Resizes = st.Resizes()
	if cfg.SampleLatency {
		total.Latency = stats.Summarize(m.lat[srvAll])
		total.GetLatency = stats.Summarize(m.lat[srvGet])
		total.SetLatency = stats.Summarize(m.lat[srvSet])
		total.DelLatency = stats.Summarize(m.lat[srvDel])
		total.BatchLatency = stats.Summarize(m.lat[srvBatch])
	}
	return total
}
