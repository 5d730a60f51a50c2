package linearize_test

import (
	"sync"
	"testing"
	"time"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/ds/arraymap"
	"github.com/optik-go/optik/ds/hashmap"
	"github.com/optik-go/optik/ds/list"
	"github.com/optik-go/optik/ds/queue"
	"github.com/optik-go/optik/ds/skiplist"
	"github.com/optik-go/optik/ds/stack"
	"github.com/optik-go/optik/internal/linearize"
	"github.com/optik-go/optik/internal/rng"
)

// recordSetHistory runs a concurrent workload against s and returns the
// observed history. Few keys maximize contention; few ops per goroutine
// keep per-key sub-histories tractable.
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

func TestSetsLinearizable(t *testing.T) {
	makers := map[string]func() ds.Set{
		"list/harris":        func() ds.Set { return list.NewHarris() },
		"list/lazy":          func() ds.Set { return list.NewLazy() },
		"list/mcs-gl-opt":    func() ds.Set { return list.NewMCSGL() },
		"list/optik-gl":      func() ds.Set { return list.NewOptikGL() },
		"list/optik":         func() ds.Set { return list.NewOptik() },
		"arraymap/mcs":       func() ds.Set { return arraymap.NewMCS(16) },
		"arraymap/optik":     func() ds.Set { return arraymap.NewOptik(16) },
		"hashmap/optik":      func() ds.Set { return hashmap.NewOptik(4) },
		"hashmap/optik-gl":   func() ds.Set { return hashmap.NewOptikGL(4) },
		"hashmap/optik-map":  func() ds.Set { return hashmap.NewOptikMap(4, 8) },
		"hashmap/lazy-gl":    func() ds.Set { return hashmap.NewLazyGL(4) },
		"hashmap/java":       func() ds.Set { return hashmap.NewJava(4, 2) },
		"hashmap/java-optik": func() ds.Set { return hashmap.NewJavaOptik(4, 2) },
		"hashmap/slab":       func() ds.Set { return hashmap.NewSlab(4) },
		// One bucket, so every history runs through live grows and shrinks
		// (from 2 buckets only about one history in ten resizes at all).
		"hashmap/resizable":  func() ds.Set { return hashmap.NewResizable(1) },
		"skiplist/herlihy":   func() ds.Set { return skiplist.NewHerlihy() },
		"skiplist/herloptik": func() ds.Set { return skiplist.NewHerlihyOptik() },
		"skiplist/fraser":    func() ds.Set { return skiplist.NewFraser() },
		"skiplist/optik1":    func() ds.Set { return skiplist.NewOptik1() },
		"skiplist/optik2":    func() ds.Set { return skiplist.NewOptik2() },
	}
	model := linearize.SetModel()
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			resizable, resizes := false, 0
			for round := 0; round < 3; round++ {
				s := mk()
				h := recordSetHistory(s, 6, 120, 6)
				if !linearize.Check(model, h) {
					t.Fatalf("round %d: history not linearizable (%d ops)", round, len(h))
				}
				if r, ok := s.(interface{ Resizes() int }); ok {
					resizable, resizes = true, resizes+r.Resizes()
				}
			}
			if resizable && resizes == 0 {
				t.Fatal("the table never resized: no history ran through a live resize")
			}
		})
	}
}

func TestCachedListHandlesLinearizable(t *testing.T) {
	// The node-cache handles carry per-goroutine state; HandleFor in the
	// recorder exercises them.
	model := linearize.SetModel()
	for name, mk := range map[string]func() ds.Set{
		"list/optik-cache": func() ds.Set { return list.NewOptik() },
		"list/lazy-cache":  func() ds.Set { return list.NewLazy() },
	} {
		t.Run(name, func(t *testing.T) {
			for round := 0; round < 3; round++ {
				h := recordSetHistory(mk(), 6, 120, 6)
				if !linearize.Check(model, h) {
					t.Fatalf("round %d: history not linearizable", round)
				}
			}
		})
	}
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

func TestQueuesLinearizable(t *testing.T) {
	makers := map[string]func() ds.Queue{
		"ms-lf":  func() ds.Queue { return queue.NewMSLF() },
		"ms-lb":  func() ds.Queue { return queue.NewMSLB() },
		"optik0": func() ds.Queue { return queue.NewOptik0() },
		"optik1": func() ds.Queue { return queue.NewOptik1() },
		"optik2": func() ds.Queue { return queue.NewOptik2() },
		"optik3": func() ds.Queue { return queue.NewOptikVictim(0) },
	}
	model := linearize.QueueModel()
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			for round := 0; round < 4; round++ {
				// Small histories: queue checking is not partitionable.
				h := recordQueueHistory(mk(), 3, 14)
				if !linearize.Check(model, h) {
					t.Fatalf("round %d: queue history not linearizable (%d ops)", round, len(h))
				}
			}
		})
	}
}

func recordStackHistory(s ds.Stack, goroutines, iters int) []linearize.Operation {
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
				var in linearize.StackInput
				var out linearize.StackOutput
				call := time.Since(start).Nanoseconds()
				if r.Intn(2) == 0 {
					val := uint64(id*1000 + i + 1)
					in = linearize.StackInput{Op: linearize.OpPush, Val: val}
					s.Push(val)
					out.OK = true
				} else {
					in = linearize.StackInput{Op: linearize.OpPop}
					out.Val, out.OK = s.Pop()
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

func TestStacksLinearizable(t *testing.T) {
	makers := map[string]func() ds.Stack{
		"treiber": func() ds.Stack { return stack.NewTreiber() },
		"optik":   func() ds.Stack { return stack.NewOptik() },
	}
	model := linearize.StackModel()
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			for round := 0; round < 4; round++ {
				h := recordStackHistory(mk(), 3, 14)
				if !linearize.Check(model, h) {
					t.Fatalf("round %d: stack history not linearizable (%d ops)", round, len(h))
				}
			}
		})
	}
}
