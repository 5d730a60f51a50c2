package linearize_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/optik-go/optik/internal/linearize"
	"github.com/optik-go/optik/internal/rng"
	"github.com/optik-go/optik/store"
)

// recordRestateHistory runs a concurrent KV workload against a string
// store under a byte budget that holds about two of its keys: most SETs
// restate the value their key already holds — decided on the index's
// validated read, without storing — and race DELs, SETs of another value
// and eviction, both the write path's inline hands and a janitor driving
// full governance passes. Each key has two values, so a restating SET
// meets its value, the other one, or no entry at all.
func recordRestateHistory(s *store.Strings, goroutines, iters int, keys uint64) []linearize.Operation {
	var mu sync.Mutex
	var history []linearize.Operation
	var wg, ready sync.WaitGroup
	stop := make(chan struct{})
	begin := make(chan struct{})
	start := time.Now()

	// The janitor: unrecorded, its evictions are what the model folds into
	// the operations that observe them.
	janitor := make(chan struct{})
	go func() {
		defer close(janitor)
		for {
			select {
			case <-stop:
				return
			default:
				s.Quiesce()
			}
		}
	}()

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		ready.Add(1)
		go func(id int) {
			defer wg.Done()
			r := rng.NewXorshift(uint64(id + 1))
			local := make([]linearize.Operation, 0, iters)
			ready.Done()
			<-begin
			for i := 0; i < iters; i++ {
				key := r.Intn(keys) + 1
				k := fmt.Sprintf("key-%d", key)
				var in linearize.KVInput
				var out linearize.KVOutput
				call := time.Since(start).Nanoseconds()
				switch op := r.Intn(100); {
				case op < 30:
					in = linearize.KVInput{Op: linearize.OpKVGet, Key: key}
					out.Val, out.OK = s.Get(k)
				case op < 75:
					val := fmt.Sprintf("a%d", key)
					if op >= 65 {
						val = fmt.Sprintf("b%d", key)
					}
					in = linearize.KVInput{Op: linearize.OpKVSet, Key: key, Val: val}
					out.OK = s.Set(k, val)
				default:
					in = linearize.KVInput{Op: linearize.OpKVDel, Key: key}
					out.OK = s.Del(k)
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
	ready.Wait()
	close(begin)
	wg.Wait()
	close(stop)
	<-janitor
	return history
}

// TestStringsRestateLinearizable checks that a SET decided without storing
// is a SET: over the hash index and the sorted one, histories in which
// restating SETs race DELs, SETs of new values and budget eviction must
// linearize against KVCacheModel. A restating SET that kept a value its
// key no longer held — a slot a delete was clearing, a tower a delete had
// marked — reports the key replaced where the model has it absent. The
// test also requires that the histories exercised what they are for:
// writes elided and entries evicted.
func TestStringsRestateLinearizable(t *testing.T) {
	ctors := []struct {
		name string
		new  func(...store.Option) *store.Strings
	}{
		{"hash", store.NewStrings},
		{"sorted", func(opts ...store.Option) *store.Strings { return &store.NewSortedStrings(opts...).Strings }},
	}
	model := linearize.KVCacheModel()
	for _, c := range ctors {
		t.Run(c.name, func(t *testing.T) {
			var evicted, elided uint64
			for round := 0; round < 3; round++ {
				s := c.new(store.WithShardBuckets(16),
					store.WithByteBudget(2*(store.PairOverhead+2)), store.WithoutMaintenance())
				h := recordRestateHistory(s, 4, 60, 4)
				_, _, ev := s.TTLStats()
				evicted, elided = evicted+ev, elided+s.WritesElided()
				s.Close()
				if !linearize.Check(model, h) {
					t.Fatalf("round %d: restating-SET history not linearizable (%d ops)", round, len(h))
				}
			}
			if evicted == 0 || elided == 0 {
				t.Fatalf("histories ran %d evictions and %d elided writes; want both", evicted, elided)
			}
		})
	}
}
