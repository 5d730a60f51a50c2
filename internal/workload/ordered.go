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
	"sync/atomic"
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
	// InitialSize is the prefilled element count; the key range defaults
	// to twice this.
	InitialSize int
	// KeyRange overrides the default 2×InitialSize range when positive.
	KeyRange uint64
	// SetPct and DelPct are the percentages of SET and DEL requests;
	// ScanPct the percentage of range scans; the rest are GETs. Defaults
	// (all three 0): 8% SET, 2% DEL, 10% SCAN.
	SetPct, DelPct, ScanPct int
	// ScanWidth is the page size of each scan (default 64): the scan
	// covers [k, k+2·ScanWidth·KeyRange/InitialSize] — about twice the
	// span that holds ScanWidth live keys — capped at ScanWidth entries.
	ScanWidth int
	// Uniform selects uniform keys; the default is the paper's zipfian.
	Uniform bool
	// Seed makes runs reproducible; 0 picks a fixed default.
	Seed uint64
	// SampleLatency enables the per-thread latency rings.
	SampleLatency bool
}

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
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x4F524452 // "ORDR"
	}
	keyRange := cfg.KeyRange
	if keyRange == 0 {
		keyRange = uint64(2 * cfg.InitialSize)
	}
	if keyRange < uint64(cfg.InitialSize) {
		panic("workload: KeyRange must be >= InitialSize")
	}
	// Span that covers ~2×ScanWidth live keys at prefill density, so a
	// typical scan fills its page but a sparse region legitimately may not.
	scanSpan := 2 * uint64(cfg.ScanWidth) * keyRange / uint64(cfg.InitialSize)
	if scanSpan == 0 {
		scanSpan = uint64(cfg.ScanWidth)
	}

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
	runtime.GC()

	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		ready   sync.WaitGroup
		mu      sync.Mutex
		total   OrderedResult
		allS    []float64
		getS    []float64
		setS    []float64
		scanS   []float64
		started = make(chan struct{})
	)
	setCut := uint64(cfg.SetPct)
	delCut := uint64(cfg.SetPct + cfg.DelPct)
	scanCut := uint64(cfg.SetPct + cfg.DelPct + cfg.ScanPct)
	for t := 0; t < cfg.Threads; t++ {
		wg.Add(1)
		ready.Add(1)
		go func(id uint64) {
			defer wg.Done()
			var dist rng.Distribution
			if cfg.Uniform {
				dist = rng.NewUniform(keyRange, seed+id*0x9E3779B9)
			} else {
				dist = rng.NewZipf(keyRange, rng.DefaultZipfTheta, true, seed+id*0x9E3779B9)
			}
			opr := rng.NewXorshift(seed ^ (id+1)*0xBF58476D1CE4E5B9)
			pageK := make([]uint64, cfg.ScanWidth)
			pageV := make([]uint64, cfg.ScanWidth)
			var gets, sets, dels, scans, hits, scanned, ops uint64
			var net int64
			var allR, getR, setR, scanR ring
			ready.Done()
			<-started
			for it := 0; ; it++ {
				if it&31 == 0 && stop.Load() {
					break
				}
				roll := opr.Next() % 100
				key := dist.NextKey()
				var begin time.Time
				if cfg.SampleLatency {
					begin = time.Now()
				}
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
				case roll < scanCut:
					to := key + scanSpan
					if to < key || to == ^uint64(0) {
						// Wrapped (or landed on the tail sentinel): clamp to
						// the largest legal key.
						to = ^uint64(0) - 1
					}
					scanned += uint64(st.Scan(key, to, pageK, pageV))
					scans++
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
					case roll < scanCut:
						scanR.add(ns)
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
			total.Scans += scans
			total.Hits += hits
			total.Scanned += scanned
			total.Net += net
			allS = append(allS, allR.buf...)
			getS = append(getS, getR.buf...)
			setS = append(setS, setR.buf...)
			scanS = append(scanS, scanR.buf...)
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

	// Accounting BEFORE any quiesce: the acceptance bar is that reuse
	// happens with zero caller-side quiescing — the operations' own handle
	// borrows and the scheduler's idle sweeps must have done it.
	total.TowersRetired, total.TowersReclaimed, total.TowersReused = st.ReclaimStats()
	st.Quiesce()
	total.MaxProcs = runtime.GOMAXPROCS(0)
	total.Mops = float64(total.Ops) / total.Elapsed.Seconds() / 1e6
	if total.Gets > 0 {
		total.HitRate = float64(total.Hits) / float64(total.Gets)
	}
	total.PrefillLen = base
	total.FinalLen = st.Len()
	if cfg.SampleLatency {
		total.Latency = stats.Summarize(allS)
		total.GetLatency = stats.Summarize(getS)
		total.SetLatency = stats.Summarize(setS)
		total.ScanLatency = stats.Summarize(scanS)
	}
	return total
}
