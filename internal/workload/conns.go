// The connection-scaling scenario: many connections, few of them active —
// the C10K shape the server's idle-grace buffer release exists for.
// RunConns opens a large connection population against a wire server,
// drives a configurable active fraction with pipelined request bursts, and
// samples the server's STATS at the window's deadline, so a figure row
// carries both the throughput/latency of the active conns and the memory
// the idle ones pinned (buffers_resident, the RSS proxy) under that exact
// load.

package workload

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/optik-go/optik/internal/rng"
	"github.com/optik-go/optik/internal/stats"
	"github.com/optik-go/optik/server"
)

// ConnsConfig describes one connection-scaling run.
type ConnsConfig struct {
	// Addr is the server to drive (the caller owns the server and its
	// idle-grace configuration — that is the variable under test).
	Addr string
	// Conns is the total connection population.
	Conns int
	// ActivePct is the percentage of connections actively issuing requests
	// (pipelined bursts of 16 keys, one MGet or MSet each, a tenth of them
	// writes); the rest sit connected and silent.
	ActivePct int
	// Duration of the measured window.
	Duration time.Duration
	// SampleLatency enables the per-conn burst latency rings.
	SampleLatency bool
}

// Active is the number of connections a run drives: ActivePct of the
// population, at least one and at most all of it.
func (c ConnsConfig) Active() int {
	return min(max(c.Conns*c.ActivePct/100, 1), c.Conns)
}

// ConnsResult aggregates one connection-scaling run.
type ConnsResult struct {
	// Conns and Active are the realized population split.
	Conns, Active int
	// Ops counts key operations completed by active conns (a 16-key
	// burst counts 16); Mops is that over the measured window.
	Ops     uint64
	Mops    float64
	Elapsed time.Duration
	// Latency summarizes per-key burst latency in ns (burst round-trip
	// divided by its 16 keys); zero without SampleLatency.
	Latency stats.Summary
	// Server-side STATS sampled at the deadline, with the population
	// still connected: ConnsOpen is conns_open,
	// BuffersResident is the buffers_resident RSS proxy (idle conns past
	// the grace hold no buffers), Rejected counts conns turned away over
	// the connection cap.
	ConnsOpen       int64
	BuffersResident int64
	Rejected        int64
	// Retries counts client-side transient-failure retries (busy replies
	// honored, redials) across the whole population.
	Retries  uint64
	MaxProcs int
}

// RunConns opens cfg.Conns connections to cfg.Addr, drives the active
// fraction for cfg.Duration, and returns the aggregate result. Dialing is
// parallel but bounded, and every connection round-trips one PING at open
// so the population is established (accepted, registered) before the
// window opens.
func RunConns(cfg ConnsConfig) ConnsResult {
	if cfg.Conns <= 0 || cfg.Duration <= 0 || cfg.Addr == "" {
		panic("workload: Addr, Conns and Duration must be set")
	}
	const (
		seed     = 0x434F4E4E // "CONN"
		depth    = 16         // keys per burst: one MGet or MSet, one flush
		keyRange = 4096       // writes populate it
		setPct   = 10         // percentage of bursts that write
	)
	active := cfg.Active()

	// Establish the population: bounded parallel dial, one PING each.
	clients := make([]*server.Client, cfg.Conns)
	var dialErr atomic.Value
	var wg sync.WaitGroup
	const dialers = 32
	next := atomic.Int64{}
	for d := 0; d < dialers; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.Conns {
					return
				}
				c, err := server.Dial(cfg.Addr)
				if err != nil {
					dialErr.Store(err)
					return
				}
				c.Ping()
				clients[i] = c
			}
		}()
	}
	wg.Wait()
	defer func() {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
	}()
	if err := dialErr.Load(); err != nil {
		panic("workload: conns dial: " + err.(error).Error())
	}

	total := ConnsResult{Conns: cfg.Conns, Active: active}
	// Sample the server's view at the deadline, while the population is
	// still fully connected, the active conns are finishing their last
	// bursts and the idle fraction has had the whole window to go past
	// its grace: this is the row's memory story.
	atDeadline := func() {
		if st, err := server.Dial(cfg.Addr); err == nil {
			s := st.Stats()
			total.ConnsOpen = s["conns_open"]
			total.BuffersResident = s["buffers_resident"]
			total.Rejected = s["conns_rejected"]
			st.Close()
		}
	}
	m := window{threads: active, duration: cfg.Duration, atDeadline: atDeadline}.run(func(id uint64, w *worker) uint64 {
		cl := clients[id]
		opr := rng.NewXorshift(seed ^ (id+1)*0x9E3779B97F4A7C15)
		keys := make([]uint64, depth)
		vals := make([]uint64, depth)
		found := make([]bool, depth)
		var ops uint64
		for w.next() {
			for i := range keys {
				keys[i] = opr.Next()%keyRange + 1
			}
			var begin time.Time
			if cfg.SampleLatency {
				begin = time.Now()
			}
			if opr.Next()%100 < setPct {
				for i := range vals {
					vals[i] = id + 1
				}
				cl.MSet(keys, vals)
			} else {
				cl.MGet(keys, vals, found)
			}
			ops += depth
			if cfg.SampleLatency {
				w.lat[0].add(float64(time.Since(begin).Nanoseconds()) / depth)
			}
		}
		return ops
	})
	total.Ops, total.Mops, total.Elapsed = m.ops, m.mops, m.elapsed
	for _, c := range clients {
		if c != nil {
			total.Retries += c.Retries()
		}
	}
	total.MaxProcs = runtime.GOMAXPROCS(0)
	if cfg.SampleLatency {
		total.Latency = stats.Summarize(m.lat[0])
	}
	return total
}
