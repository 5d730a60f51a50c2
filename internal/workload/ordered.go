// The ordered scenario: the range-partitioned skip-list store serving a
// mixed point/range request stream — zipfian GET/SET/DEL exactly as the
// server workload, plus a configurable fraction of range scans, the query
// the ordered index exists for. Scans page with a fixed width from a
// zipfian start key, so hot regions are scanned as often as they are
// read, and scan latency rides its own ring for a direct per-kind
// comparison against point ops.

package workload

import (
	"runtime"
	"sync"
	"time"

	"github.com/optik-go/optik/internal/rng"
	"github.com/optik-go/optik/internal/stats"
	"github.com/optik-go/optik/store"
)

// OrderedConfig describes one ordered run.
type OrderedConfig struct {
	Threads int
	// Duration of the measured run.
	Duration time.Duration
	// InitialSize is the prefilled element count; keys are drawn from
	// twice this range.
	InitialSize int
	// SetPct and DelPct are the percentages of SET and DEL requests;
	// ScanPct the percentage of range scans; the rest are GETs. Defaults
	// (all three 0): 8% SET, 2% DEL, 10% SCAN.
	SetPct, DelPct, ScanPct int
	// ScanWidth is the page size of each scan (default 64): the scan
	// covers [k, k+4·ScanWidth] — about twice the span that holds
	// ScanWidth live keys at the prefill's density of one key in two —
	// capped at ScanWidth entries.
	ScanWidth int
	// SampleLatency enables the per-thread latency rings.
	SampleLatency bool
}

// The ordered run's latency rings; a DEL is sampled into ordAll alone.
const (
	ordAll = iota
	ordGet
	ordSet
	ordScan
	ordDel
)

// OrderedResult aggregates one ordered run.
type OrderedResult struct {
	// Ops counts requests (a scan counts 1 regardless of page size).
	Ops uint64
	// Mops is throughput in million requests per second.
	Mops float64
	// Elapsed is the measured wall-clock duration.
	Elapsed time.Duration
	// Gets/Sets/Dels/Scans count requests per kind; Hits counts GET hits;
	// Scanned counts the entries all scans returned.
	Gets, Sets, Dels, Scans, Hits, Scanned uint64
	// HitRate is Hits/Gets.
	HitRate float64
	// Net is fresh inserts minus successful deletes in the measured phase.
	Net int64
	// PrefillLen and FinalLen bracket the run (FinalLen after the final
	// quiesce).
	PrefillLen, FinalLen int
	// TowersRetired/Reclaimed/Reused are the shared domain's tower
	// reclamation counters — nonzero Reused with no caller Quiesce is the
	// recycling acceptance signal.
	TowersRetired, TowersReclaimed, TowersReused uint64
	// Latency summarizes every sampled request (ns); Scan latency rides
	// its own summary (whole-page, not per-entry).
	Latency, GetLatency, SetLatency, ScanLatency stats.Summary
	// MaxProcs records runtime.GOMAXPROCS at measurement time.
	MaxProcs int
}

// RunOrdered drives the mixed point/scan workload against a fresh store
// from factory and returns the aggregate result; the factory owns shard
// count, RunOrdered closes the store after the final accounting.
func RunOrdered(cfg OrderedConfig, factory func() *store.Ordered[uint64]) OrderedResult {
	if cfg.Threads <= 0 || cfg.InitialSize <= 0 || cfg.Duration <= 0 {
		panic("workload: Threads, InitialSize and Duration must be positive")
	}
	if cfg.SetPct == 0 && cfg.DelPct == 0 && cfg.ScanPct == 0 {
		cfg.SetPct, cfg.DelPct, cfg.ScanPct = 8, 2, 10
	}
	if cfg.SetPct+cfg.DelPct+cfg.ScanPct > 100 || cfg.SetPct < 0 || cfg.DelPct < 0 || cfg.ScanPct < 0 {
		panic("workload: SetPct+DelPct+ScanPct must fit in [0, 100]")
	}
	if cfg.ScanWidth <= 0 {
		cfg.ScanWidth = 64
	}
	const seed = 0x4F524452 // "ORDR"
	keyRange := uint64(2 * cfg.InitialSize)
	// Span that covers ~2×ScanWidth live keys at prefill density, so a
	// typical scan fills its page but a sparse region legitimately may not.
	scanSpan := 4 * uint64(cfg.ScanWidth)

	st := factory()
	defer st.Close()
	// Prefill to InitialSize live keys (upserts; duplicates collapse).
	pre := rng.NewXorshift(seed)
	base := st.Len()
	for base < cfg.InitialSize {
		k := pre.Intn(keyRange) + 1
		if _, replaced := st.Set(k, 1); !replaced {
			base++
		}
	}

	var (
		mu    sync.Mutex
		total OrderedResult
	)
	setCut := uint64(cfg.SetPct)
	delCut := uint64(cfg.SetPct + cfg.DelPct)
	scanCut := uint64(cfg.SetPct + cfg.DelPct + cfg.ScanPct)
	m := window{threads: cfg.Threads, duration: cfg.Duration}.run(func(id uint64, w *worker) uint64 {
		dist := newDist(keyRange, true, seed+id*0x9E3779B9)
		opr := rng.NewXorshift(seed ^ (id+1)*0xBF58476D1CE4E5B9)
		pageK := make([]uint64, cfg.ScanWidth)
		pageV := make([]uint64, cfg.ScanWidth)
		var my OrderedResult
		for w.next() {
			roll := opr.Next() % 100
			key := dist.NextKey()
			var begin time.Time
			if cfg.SampleLatency {
				begin = time.Now()
			}
			kind := ordGet
			switch {
			case roll < setCut:
				kind = ordSet
				if _, replaced := st.Set(key, id); !replaced {
					my.Net++
				}
				my.Sets++
			case roll < delCut:
				kind = ordDel
				if _, ok := st.Del(key); ok {
					my.Net--
				}
				my.Dels++
			case roll < scanCut:
				kind = ordScan
				to := key + scanSpan
				if to < key || to == ^uint64(0) {
					// Wrapped (or landed on the tail sentinel): clamp to
					// the largest legal key.
					to = ^uint64(0) - 1
				}
				my.Scanned += uint64(st.Scan(key, to, pageK, pageV))
				my.Scans++
			default:
				if _, ok := st.Get(key); ok {
					my.Hits++
				}
				my.Gets++
			}
			my.Ops++
			if cfg.SampleLatency {
				ns := float64(time.Since(begin).Nanoseconds())
				w.lat[ordAll].add(ns)
				if kind != ordDel {
					w.lat[kind].add(ns)
				}
			}
		}
		mu.Lock()
		total.Gets += my.Gets
		total.Sets += my.Sets
		total.Dels += my.Dels
		total.Scans += my.Scans
		total.Hits += my.Hits
		total.Scanned += my.Scanned
		total.Net += my.Net
		mu.Unlock()
		return my.Ops
	})
	total.Ops, total.Mops, total.Elapsed = m.ops, m.mops, m.elapsed

	// Accounting BEFORE any quiesce: the acceptance bar is that reuse
	// happens with zero caller-side quiescing — the operations' own handle
	// borrows and the scheduler's idle sweeps must have done it.
	total.TowersRetired, total.TowersReclaimed, total.TowersReused = st.ReclaimStats()
	st.Quiesce()
	total.MaxProcs = runtime.GOMAXPROCS(0)
	if total.Gets > 0 {
		total.HitRate = float64(total.Hits) / float64(total.Gets)
	}
	total.PrefillLen = base
	total.FinalLen = st.Len()
	if cfg.SampleLatency {
		total.Latency = stats.Summarize(m.lat[ordAll])
		total.GetLatency = stats.Summarize(m.lat[ordGet])
		total.SetLatency = stats.Summarize(m.lat[ordSet])
		total.ScanLatency = stats.Summarize(m.lat[ordScan])
	}
	return total
}
