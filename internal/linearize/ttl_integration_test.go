package linearize_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/optik-go/optik/internal/linearize"
	"github.com/optik-go/optik/internal/rng"
	"github.com/optik-go/optik/store"
)

// recordKVTTLHistory runs a concurrent KV workload with expiry against a
// string store — built by newStrings, so both constructors of the string
// layer take the same harness — driven by an injected clock. One dedicated client advances
// the clock (each advance is an operation in the history — the model's
// time only moves where the checker can see it), the workers mix
// Get/Set/Del/ExpireAt/Persist over few keys, and a janitor goroutine
// concurrently drives the store's sweep so background retirement of
// expired entries races the recorded operations.
func recordKVTTLHistory(newStrings func(...store.Option) *store.Strings, goroutines, iters int, keys uint64) []linearize.Operation {
	var clock atomic.Int64
	clock.Store(1_000_000_000)
	s := newStrings(
		store.WithClock(clock.Load),
		store.WithShards(2),
		store.WithShardBuckets(16),
		store.WithoutMaintenance(),
	)
	const tick = int64(time.Millisecond)

	var mu sync.Mutex
	var history []linearize.Operation
	var wg sync.WaitGroup
	var ready sync.WaitGroup
	stop := make(chan struct{})
	begin := make(chan struct{})
	start := time.Now()

	// The janitor: unrecorded, but its expired-entry retirement must be
	// invisible to the checker (an expired entry is absent either way).
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				s.Quiesce()
			}
		}
	}()

	// The clock client: iters monotone advances, each a history op.
	wg.Add(1)
	ready.Add(1)
	go func() {
		defer wg.Done()
		r := rng.NewXorshift(uint64(goroutines + 1))
		local := make([]linearize.Operation, 0, iters/2)
		ready.Done()
		<-begin
		for i := 0; i < iters/2; i++ {
			next := clock.Load() + int64(r.Intn(3)+1)*tick
			call := time.Since(start).Nanoseconds()
			clock.Store(next)
			ret := time.Since(start).Nanoseconds()
			local = append(local, linearize.Operation{
				ClientID: goroutines,
				Input:    linearize.KVInput{Op: linearize.OpKVAdvance, Deadline: next},
				Output:   linearize.KVOutput{OK: true},
				Call:     call, Return: ret,
			})
		}
		mu.Lock()
		history = append(history, local...)
		mu.Unlock()
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
				case op < 40:
					in = linearize.KVInput{Op: linearize.OpKVGet, Key: key}
					out.Val, out.OK = s.Get(k)
				case op < 65:
					val := fmt.Sprintf("v%d-%d", id, i)
					in = linearize.KVInput{Op: linearize.OpKVSet, Key: key, Val: val}
					out.OK = s.Set(k, val)
				case op < 80:
					// An absolute deadline straddling the current clock:
					// some land in the past (immediate expiry), most a few
					// ticks out, so expiry races every other op.
					deadline := clock.Load() + int64(r.Intn(5)-1)*tick
					in = linearize.KVInput{Op: linearize.OpKVExpireAt, Key: key, Deadline: deadline}
					out.OK = s.ExpireAt(k, deadline)
				case op < 90:
					in = linearize.KVInput{Op: linearize.OpKVDel, Key: key}
					out.OK = s.Del(k)
				default:
					in = linearize.KVInput{Op: linearize.OpKVPersist, Key: key}
					out.OK = s.Persist(k)
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
	return history
}

// TestStringsTTLLinearizable checks the string store's TTL surface for
// linearizability: an expired Get must linearize as a miss after its
// deadline passed (an Advance in the history), never before, and the
// background sweep's retirements must be unobservable — over the hash
// index and over the sorted one, whose expiry retires through the skip
// list's conditional delete.
func TestStringsTTLLinearizable(t *testing.T) {
	ctors := []struct {
		name string
		new  func(...store.Option) *store.Strings
	}{
		{"hash", store.NewStrings},
		{"sorted", func(opts ...store.Option) *store.Strings { return &store.NewSortedStrings(opts...).Strings }},
	}
	model := linearize.KVTTLModel(1_000_000_000)
	for _, c := range ctors {
		t.Run(c.name, func(t *testing.T) {
			for round := 0; round < 3; round++ {
				h := recordKVTTLHistory(c.new, 4, 60, 4)
				if !linearize.Check(model, h) {
					t.Fatalf("round %d: KV-TTL history not linearizable (%d ops)", round, len(h))
				}
			}
		})
	}
}
