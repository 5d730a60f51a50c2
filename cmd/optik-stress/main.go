// optik-stress is a long-running correctness harness: it hammers every
// data structure in the library with concurrent operations, verifies
// conservation invariants, and checks recorded histories for
// linearizability with the Wing–Gong checker.
//
// Usage:
//
//	optik-stress [-duration 10s] [-threads 8] [-structures list,queue,...]
//	             [-janitor=false]
//
// The hashmaps family additionally drives the resizable table through two
// full grow/drain churn cycles and — unless -janitor=false — runs that
// churn with the table registered on a background maintenance scheduler
// (maint.Scheduler, the janitor) plus a dedicated scheduler start/stop
// hammer under live traffic, verifying the janitor's lifecycle and the
// table's invariants never interfere.
//
// The stores family drives the sharded store.Store: a mixed
// scalar-and-batched GET/SET/DEL stream with exact conservation across
// every shard (the batched MSet/MDel counts must add up key for key),
// followed by a full drain with no Quiesce calls, after which the shared
// maintenance scheduler alone must return every shard to its floor.
//
// Exit status is non-zero if any check fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/ds/arraymap"
	"github.com/optik-go/optik/ds/hashmap"
	"github.com/optik-go/optik/ds/list"
	"github.com/optik-go/optik/ds/queue"
	"github.com/optik-go/optik/ds/skiplist"
	"github.com/optik-go/optik/internal/linearize"
	"github.com/optik-go/optik/internal/maint"
	"github.com/optik-go/optik/internal/rng"
	"github.com/optik-go/optik/internal/workload"
	"github.com/optik-go/optik/store"
)

func main() {
	duration := flag.Duration("duration", 10*time.Second, "total stress budget")
	threads := flag.Int("threads", 8, "concurrent workers per structure")
	structures := flag.String("structures", "all", "comma-separated families: lists,hashmaps,skiplists,arraymaps,queues,stores (or all)")
	janitor := flag.Bool("janitor", true, "run the resizable churn check with the background janitor on, plus a start/stop hammer")
	flag.Parse()

	want := map[string]bool{}
	for _, s := range strings.Split(*structures, ",") {
		want[strings.TrimSpace(s)] = true
	}
	all := want["all"]

	sets := map[string]func() ds.Set{}
	add := func(family string, m map[string]func() ds.Set) {
		if all || want[family] {
			for k, v := range m {
				sets[family+"/"+k] = v
			}
		}
	}
	add("lists", map[string]func() ds.Set{
		"harris":      func() ds.Set { return list.NewHarris() },
		"lazy":        func() ds.Set { return list.NewLazy() },
		"mcs-gl-opt":  func() ds.Set { return list.NewMCSGL() },
		"optik-gl":    func() ds.Set { return list.NewOptikGL() },
		"optik":       func() ds.Set { return list.NewOptik() },
		"optik-cache": func() ds.Set { return list.NewOptik() },
		"lazy-cache":  func() ds.Set { return list.NewLazy() },
	})
	add("hashmaps", map[string]func() ds.Set{
		"optik":      func() ds.Set { return hashmap.NewOptik(32) },
		"optik-gl":   func() ds.Set { return hashmap.NewOptikGL(32) },
		"optik-map":  func() ds.Set { return hashmap.NewOptikMap(32, 8) },
		"lazy-gl":    func() ds.Set { return hashmap.NewLazyGL(32) },
		"java":       func() ds.Set { return hashmap.NewJava(32, 4) },
		"java-optik": func() ds.Set { return hashmap.NewJavaOptik(32, 4) },
		"slab":       func() ds.Set { return hashmap.NewSlab(32) },
		// Tiny initial size so the stress drives it through live resizes.
		"resizable": func() ds.Set { return hashmap.NewResizable(2) },
	})
	add("skiplists", map[string]func() ds.Set{
		"herlihy":    func() ds.Set { return skiplist.NewHerlihy() },
		"herl-optik": func() ds.Set { return skiplist.NewHerlihyOptik() },
		"fraser":     func() ds.Set { return skiplist.NewFraser() },
		"optik1":     func() ds.Set { return skiplist.NewOptik1() },
		"optik2":     func() ds.Set { return skiplist.NewOptik2() },
	})
	add("arraymaps", map[string]func() ds.Set{
		"mcs":   func() ds.Set { return arraymap.NewMCS(64) },
		"optik": func() ds.Set { return arraymap.NewOptik(64) },
	})

	queues := map[string]func() ds.Queue{}
	if all || want["queues"] {
		queues = map[string]func() ds.Queue{
			"ms-lf":  func() ds.Queue { return queue.NewMSLF() },
			"ms-lb":  func() ds.Queue { return queue.NewMSLB() },
			"optik0": func() ds.Queue { return queue.NewOptik0() },
			"optik1": func() ds.Queue { return queue.NewOptik1() },
			"optik2": func() ds.Queue { return queue.NewOptik2() },
			"optik3": func() ds.Queue { return queue.NewOptikVictim(0) },
		}
	}

	churn := all || want["hashmaps"]
	hammer := churn && *janitor
	stores := all || want["stores"]
	total := len(sets) + len(queues)
	if churn {
		total++
	}
	if hammer {
		total++
	}
	if stores {
		total++
	}
	if total == 0 {
		fmt.Fprintln(os.Stderr, "optik-stress: nothing selected")
		os.Exit(2)
	}
	per := *duration / time.Duration(total)
	if per < 100*time.Millisecond {
		per = 100 * time.Millisecond
	}
	failures := 0

	for name, mk := range sets {
		ok := stressSet(name, mk, *threads, per)
		if !ok {
			failures++
		}
	}
	if churn {
		if !stressResizableChurn(*threads, *janitor) {
			failures++
		}
	}
	if hammer {
		if !stressJanitorHammer(*threads) {
			failures++
		}
	}
	if stores {
		if !stressShardedStore(*threads) {
			failures++
		}
	}
	for name, mk := range queues {
		ok := stressQueue("queues/"+name, mk, *threads, per)
		if !ok {
			failures++
		}
	}
	if failures > 0 {
		fmt.Printf("FAILED: %d of %d structures\n", failures, total)
		os.Exit(1)
	}
	fmt.Printf("OK: %d structures stressed for %v total\n", total, *duration)
}

// stressResizableChurn hammers the resizable hash map through two full
// grow/steady/drain cycles (work-bound, so it ignores the per-structure
// time budget) and verifies the shrink path end to end: exact conservation
// between the net of successful updates and the final count, no migration
// left in flight, the bucket count back within 2× of the initial one
// instead of stranded at the peak, and — janitor or not, reclamation is
// always active — the node lifecycle must have recycled chain nodes.
func stressResizableChurn(threads int, janitor bool) bool {
	const (
		peak  = 30000
		start = peak / 8
	)
	floor := 1 // NewResizable rounds start up to a power of two
	for floor < start {
		floor <<= 1
	}
	name := "hashmaps/resizable-churn"
	factory := func() ds.Set { return hashmap.NewResizable(start) }
	if janitor {
		name = "hashmaps/resizable-churn-jan"
		factory = func() ds.Set { return workload.Janitored(hashmap.NewResizable(start)) }
	}
	res := workload.RunChurn(workload.ChurnConfig{
		Threads: threads, PeakSize: peak, Cycles: 2, SearchPct: 20, SteadyOps: peak / 2,
	}, factory)
	if res.FinalLen != res.Net {
		fmt.Printf("%-24s CONSERVATION VIOLATION: len=%d net=%d\n", name, res.FinalLen, res.Net)
		return false
	}
	if res.FinalBuckets > 2*floor {
		fmt.Printf("%-24s SHRINK FAILURE: %d buckets left for %d elements (floor %d)\n",
			name, res.FinalBuckets, res.FinalLen, floor)
		return false
	}
	if res.Resizes < 3 {
		fmt.Printf("%-24s SHRINK FAILURE: only %d resizes across two churn cycles\n", name, res.Resizes)
		return false
	}
	if res.NodesRetired == 0 || res.NodesReused == 0 {
		fmt.Printf("%-24s RECLAMATION FAILURE: retired=%d reused=%d across two churn cycles\n",
			name, res.NodesRetired, res.NodesReused)
		return false
	}
	fmt.Printf("%-24s ok (conservation + shrink: %d ops, %d resizes, %d final buckets, %d/%d nodes retired/reused)\n",
		name, res.Ops, res.Resizes, res.FinalBuckets, res.NodesRetired, res.NodesReused)
	return true
}

// stressJanitorHammer starts and stops a maintenance scheduler on the
// table in a tight loop while workers churn it, then leaves one running,
// stops the traffic, and requires the table to reach its floor with no
// one calling Quiesce — the lifecycle is safe under fire AND the janitor
// actually does its job afterwards.
func stressJanitorHammer(threads int) bool {
	const name = "hashmaps/janitor-hammer"
	m := hashmap.NewResizable(64)
	var stop atomic.Bool
	var net atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.NewXorshift(seed)
			for !stop.Load() {
				key := r.Intn(20000) + 1
				if r.Intn(3) == 0 {
					if _, ok := m.Delete(key); ok {
						net.Add(-1)
					}
				} else if m.Insert(key, key) {
					net.Add(1)
				}
			}
		}(uint64(g + 1))
	}
	for i := 0; i < 200; i++ {
		sched := maint.NewScheduler(time.Millisecond)
		sched.Register(m)
		if i%2 == 0 {
			time.Sleep(500 * time.Microsecond)
		}
		sched.Stop()
	}
	// Drain: delete-heavy traffic empties the table, then stops entirely.
	stop.Store(true)
	wg.Wait()
	for k := uint64(1); k <= 20000; k++ {
		if _, ok := m.Delete(k); ok {
			net.Add(-1)
		}
	}
	if int64(m.Len()) != net.Load() || net.Load() != 0 {
		fmt.Printf("%-24s CONSERVATION VIOLATION: len=%d net=%d\n", name, m.Len(), net.Load())
		return false
	}
	// The janitor, not the caller, must return the empty table to its
	// floor. maint.DefaultInterval is 10ms; two idle ticks suffice, but
	// give the scheduler slack.
	sched := maint.NewScheduler(0)
	defer sched.Stop()
	sched.Register(m)
	deadline := time.Now().Add(5 * time.Second)
	for m.Buckets() != 64 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := m.Buckets(); got != 64 {
		fmt.Printf("%-24s JANITOR FAILURE: %d buckets after idle drain, want 64\n", name, got)
		return false
	}
	fmt.Printf("%-24s ok (200 start/stop cycles under load; janitor returned table to floor)\n", name)
	return true
}

// stressShardedStore verifies the sharded store end to end: a mixed
// scalar-and-batched stream with exact conservation summed across every
// shard (run twice: the server workload's own accounting, then a direct
// net-tracking hammer), and after a full drain the shared scheduler —
// one goroutine for the whole fleet, zero caller Quiesce calls — must
// return every shard to its floor bucket count.
func stressShardedStore(threads int) bool {
	const name = "stores/sharded-store"
	const shards = 8
	const floor = 64
	factory := func() *store.Store {
		return store.New(store.WithShards(shards), store.WithShardBuckets(floor),
			store.WithMaintenanceInterval(time.Millisecond))
	}

	// Phase 1: the server workload's batched mix, conservation via its own
	// accounting.
	res := workload.RunServer(workload.ServerConfig{
		Threads: threads, Duration: 500 * time.Millisecond, InitialSize: 20000,
		SetPct: 25, DelPct: 15, BatchPct: 40, BatchSize: 8,
	}, func() workload.Target { return factory() })
	if res.PrefillLen != 20000 || int64(res.FinalLen) != int64(res.PrefillLen)+res.Net {
		fmt.Printf("%-24s CONSERVATION VIOLATION: len=%d net=%d prefill=%d\n",
			name, res.FinalLen, res.Net, res.PrefillLen)
		return false
	}

	// Phase 2: direct hammer with external net tracking, then the drain.
	st := factory()
	defer st.Close()
	var net atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	const keyRange = 60000
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.NewXorshift(seed)
			keys := make([]uint64, 8)
			vals := make([]uint64, 8)
			for !stop.Load() {
				switch r.Intn(4) {
				case 0:
					if _, replaced := st.Set(r.Intn(keyRange)+1, seed); !replaced {
						net.Add(1)
					}
				case 1:
					if _, ok := st.Del(r.Intn(keyRange) + 1); ok {
						net.Add(-1)
					}
				case 2:
					for i := range keys {
						keys[i] = r.Intn(keyRange) + 1
						vals[i] = seed
					}
					net.Add(int64(st.MSet(keys, vals)))
				default:
					for i := range keys {
						keys[i] = r.Intn(keyRange) + 1
					}
					net.Add(-int64(st.MDel(keys)))
				}
			}
		}(uint64(g + 1))
	}
	time.Sleep(time.Second)
	stop.Store(true)
	wg.Wait()
	st.Quiesce()
	if int64(st.Len()) != net.Load() {
		fmt.Printf("%-24s CONSERVATION VIOLATION: len=%d net=%d across %d shards\n",
			name, st.Len(), net.Load(), shards)
		return false
	}
	// Drain everything; the scheduler alone must shrink the fleet home.
	keys := make([]uint64, 64)
	for base := uint64(1); base <= keyRange; base += 64 {
		for i := range keys {
			keys[i] = base + uint64(i)
		}
		net.Add(-int64(st.MDel(keys)))
	}
	if st.Len() != 0 || net.Load() != 0 {
		fmt.Printf("%-24s DRAIN FAILURE: len=%d net=%d\n", name, st.Len(), net.Load())
		return false
	}
	deadline := time.Now().Add(10 * time.Second)
	for st.Buckets() != shards*floor && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := st.Buckets(); got != shards*floor {
		fmt.Printf("%-24s SCHEDULER FAILURE: %d buckets after idle drain, want %d\n",
			name, got, shards*floor)
		return false
	}
	fmt.Printf("%-24s ok (batched+scalar conservation across %d shards; scheduler returned fleet to floor)\n",
		name, shards)
	return true
}

// stressSet runs (a) a conservation stress and (b) a linearizability check
// on short recorded histories, within budget.
func stressSet(name string, mk func() ds.Set, threads int, budget time.Duration) bool {
	deadline := time.Now().Add(budget)
	// Conservation: net successful inserts-deletes must equal final Len.
	s := mk()
	var net atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			view := ds.HandleFor(s)
			r := rng.NewXorshift(seed)
			for !stop.Load() {
				key := r.Intn(64) + 1
				if r.Intn(2) == 0 {
					if view.Insert(key, key) {
						net.Add(1)
					}
				} else {
					if _, ok := view.Delete(key); ok {
						net.Add(-1)
					}
				}
			}
		}(uint64(g + 1))
	}
	time.Sleep(budget / 2)
	stop.Store(true)
	wg.Wait()
	if int64(s.Len()) != net.Load() {
		fmt.Printf("%-24s CONSERVATION VIOLATION: len=%d net=%d\n", name, s.Len(), net.Load())
		return false
	}

	// Linearizability on small histories until the deadline.
	model := linearize.SetModel()
	rounds := 0
	for time.Now().Before(deadline) {
		h := recordSetHistory(mk(), min(threads, 6), 100, 6)
		if !linearize.Check(model, h) {
			fmt.Printf("%-24s LINEARIZABILITY VIOLATION (%d ops)\n", name, len(h))
			return false
		}
		rounds++
	}
	fmt.Printf("%-24s ok (conservation + %d linearizability rounds)\n", name, rounds)
	return true
}

func stressQueue(name string, mk func() ds.Queue, threads int, budget time.Duration) bool {
	deadline := time.Now().Add(budget)
	// Conservation: every enqueued value dequeued at most once; counts add up.
	q := mk()
	const perProducer = 20000
	seen := make([]atomic.Uint32, threads*perProducer+1)
	var dequeued atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Enqueue(uint64(id*perProducer + i + 1))
				if v, ok := q.Dequeue(); ok {
					if seen[v].Add(1) != 1 {
						fmt.Printf("%-24s DUPLICATE DEQUEUE of %d\n", name, v)
					}
					dequeued.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	for {
		v, ok := q.Dequeue()
		if !ok {
			break
		}
		if seen[v].Add(1) != 1 {
			fmt.Printf("%-24s DUPLICATE DEQUEUE of %d on drain\n", name, v)
			return false
		}
		dequeued.Add(1)
	}
	if dequeued.Load() != int64(threads*perProducer) {
		fmt.Printf("%-24s CONSERVATION VIOLATION: dequeued %d of %d\n",
			name, dequeued.Load(), threads*perProducer)
		return false
	}

	model := linearize.QueueModel()
	rounds := 0
	for time.Now().Before(deadline) {
		h := recordQueueHistory(mk(), 3, 14)
		if !linearize.Check(model, h) {
			fmt.Printf("%-24s LINEARIZABILITY VIOLATION (%d ops)\n", name, len(h))
			return false
		}
		rounds++
	}
	fmt.Printf("%-24s ok (conservation + %d linearizability rounds)\n", name, rounds)
	return true
}

func recordSetHistory(s ds.Set, goroutines, iters int, keys uint64) []linearize.Operation {
	var mu sync.Mutex
	var history []linearize.Operation
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			view := ds.HandleFor(s)
			r := rng.NewXorshift(uint64(id + 1))
			local := make([]linearize.Operation, 0, iters)
			for i := 0; i < iters; i++ {
				key := r.Intn(keys) + 1
				var in linearize.SetInput
				var out linearize.SetOutput
				call := time.Since(start).Nanoseconds()
				switch r.Intn(3) {
				case 0:
					val := r.Next()%1000 + 1
					in = linearize.SetInput{Op: linearize.OpInsert, Key: key, Val: val}
					out.OK = view.Insert(key, val)
				case 1:
					in = linearize.SetInput{Op: linearize.OpDelete, Key: key}
					out.Val, out.OK = view.Delete(key)
				default:
					in = linearize.SetInput{Op: linearize.OpSearch, Key: key}
					out.Val, out.OK = view.Search(key)
				}
				ret := time.Since(start).Nanoseconds()
				local = append(local, linearize.Operation{
					ClientID: id, Input: in, Output: out, Call: call, Return: ret,
				})
			}
			mu.Lock()
			history = append(history, local...)
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	return history
}

func recordQueueHistory(q ds.Queue, goroutines, iters int) []linearize.Operation {
	var mu sync.Mutex
	var history []linearize.Operation
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := rng.NewXorshift(uint64(id + 1))
			local := make([]linearize.Operation, 0, iters)
			for i := 0; i < iters; i++ {
				var in linearize.QueueInput
				var out linearize.QueueOutput
				call := time.Since(start).Nanoseconds()
				if r.Intn(2) == 0 {
					val := uint64(id*1000 + i + 1)
					in = linearize.QueueInput{Op: linearize.OpEnqueue, Val: val}
					q.Enqueue(val)
					out.OK = true
				} else {
					in = linearize.QueueInput{Op: linearize.OpDequeue}
					out.Val, out.OK = q.Dequeue()
				}
				ret := time.Since(start).Nanoseconds()
				local = append(local, linearize.Operation{
					ClientID: id, Input: in, Output: out, Call: call, Return: ret,
				})
			}
			mu.Lock()
			history = append(history, local...)
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	return history
}
