package main

import (
	"github.com/optik-go/optik/bench/gen"
	"github.com/optik-go/optik/server"
	"github.com/optik-go/optik/store"
)

// workload is one traffic mix plus the server-side configuration it runs
// against.
type workload struct {
	gen.Workload
	// why is the one line recorded in BENCHMARK.json.
	why string
	// budgetPct is the store's byte budget in percent of the footprint of
	// the whole key population; 0 leaves the store unbounded.
	budgetPct int
	// conns is the number of closed-loop connections.
	conns int
	// replayOps is how many ops of connection 0's stream the traced run
	// replays into each layer.
	replayOps int
}

// procs is the GOMAXPROCS the harness pins: the 2 vCPUs of the box the
// bounds were calibrated on, shared by the clients and the server.
const procs = 2

// ringOps is the length of a workload's request rings, all connections
// together. It bounds the generator's memory (20 to 40 MB) so that
// rss_peak_mb stays mostly the server's. The connections lap their rings
// every 0.2 to 2.6 s, so a run sends the same 2^19 ops over and over: the
// keys a run touches are the rings'.
const ringOps = 1 << 19

// ringLen is the length of one connection's ring.
func (w *workload) ringLen() int { return ringOps / w.conns }

// The mixes: the hash store read-mostly, the same store as an evicting
// cache under write pressure, and the skip-list spine. Each keeps the two
// cores busy from two pipelining connections.
var workloads = []workload{
	{
		Workload: gen.Workload{
			Name: "kv_pipe64", Keys: 1 << 20, ValueLen: 64, Depth: 64,
			Pct:  [gen.NumKinds]int{gen.Get: 90, gen.Set: 8, gen.Del: 2},
			Dist: gen.Zipf, Theta: 0.99, PreloadPct: 80,
		},
		conns: 2, replayOps: 2_000_000,
		why: "the same keys and mix pipelined 64 deep: syscalls amortised, so parse, coalescer, store batches and the value arena dominate",
	},
	{
		Workload: gen.Workload{
			Name: "cache_churn", Keys: 400_000, ValueLen: 128, Depth: 16,
			Pct:  [gen.NumKinds]int{gen.Get: 70, gen.Set: 20, gen.SetEX: 10},
			Dist: gen.Hotspot, HotKeysPct: 20, HotOpsPct: 90,
			TTLSecs: 3600, PreloadPct: 100, Refill: true,
		},
		conns: 2, budgetPct: 25, replayOps: 2_000_000,
		why: "governed cache, byte budget a quarter of the working set, misses refilled: inserts, arena recycling, eviction and qsbr retirement under write pressure",
	},
	{
		Workload: gen.Workload{
			Name: "ordered_scan", Ordered: true, Keys: 1_000_000, ValueLen: 32, Depth: 16,
			Pct:  [gen.NumKinds]int{gen.Get: 60, gen.Set: 8, gen.Del: 2, gen.Range: 30},
			Dist: gen.Uniform, RangeLen: 100, PreloadPct: 80,
		},
		// A RANGE-of-100 costs what a hundred point ops do, and the replay
		// preloads three skip lists: fewer ops keep the traced run inside
		// the time a plain run takes.
		conns: 2, replayOps: 500_000,
		why: "the ordered spine (skip list, range partition, sorted strings) larger than the CPU caches, a third of commands RANGE-of-100; hash-spine changes are predicted flat here",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// storeOptions is how the workload's store is built, by the served run and
// by the replay alike. Everything not named is cmd/optik-server's default:
// one shard per core, 1024 floor buckets.
func (w *workload) storeOptions() []store.Option {
	if w.Ordered {
		// The ceiling an operator would pass as -keymax: without it every
		// key of the population routes to shard 0 and the range partition,
		// the point of the ordered store, is not on the path.
		return []store.Option{store.WithKeyMax(gen.OrderedKey(w.Keys - 1))}
	}
	if w.budgetPct > 0 {
		return []store.Option{store.WithByteBudget(w.byteBudget())}
	}
	return nil
}

func (w *workload) byteBudget() int64 {
	footprint := int64(w.Keys) * int64(w.ValueLen+store.PairOverhead)
	return footprint * int64(w.budgetPct) / 100
}

// newServer builds the store and a server on it with cmd/optik-server's
// default options (goroutine conn mode, -batch 512, -coalesce 256).
func (w *workload) newServer() (srv *server.Server, closeStore func()) {
	if w.Ordered {
		st := store.NewSortedStrings(w.storeOptions()...)
		return server.NewOrdered(st), st.Close
	}
	st := store.NewStrings(w.storeOptions()...)
	return server.New(st), st.Close
}
