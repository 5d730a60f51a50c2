package queue

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/optik-go/optik/ds"
)

func variants() map[string]func() ds.Queue {
	return map[string]func() ds.Queue{
		"ms-lf":  func() ds.Queue { return NewMSLF() },
		"ms-lb":  func() ds.Queue { return NewMSLB() },
		"optik0": func() ds.Queue { return NewOptik0() },
		"optik1": func() ds.Queue { return NewOptik1() },
		"optik2": func() ds.Queue { return NewOptik2() },
		"optik3": func() ds.Queue { return NewOptikVictim(0) },
	}
}

func TestSequentialFIFO(t *testing.T) {
	for name, mk := range variants() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			if _, ok := q.Dequeue(); ok {
				t.Fatal("dequeue from empty queue succeeded")
			}
			for i := uint64(1); i <= 100; i++ {
				q.Enqueue(i)
			}
			if q.Len() != 100 {
				t.Fatalf("Len = %d, want 100", q.Len())
			}
			for i := uint64(1); i <= 100; i++ {
				v, ok := q.Dequeue()
				if !ok || v != i {
					t.Fatalf("Dequeue = %v,%v want %d", v, ok, i)
				}
			}
			if _, ok := q.Dequeue(); ok {
				t.Fatal("queue should be empty")
			}
			if q.Len() != 0 {
				t.Fatalf("Len = %d, want 0", q.Len())
			}
		})
	}
}

func TestInterleavedEnqueueDequeue(t *testing.T) {
	for name, mk := range variants() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			next := uint64(1)
			expect := uint64(1)
			for round := 0; round < 1000; round++ {
				for i := 0; i < 3; i++ {
					q.Enqueue(next)
					next++
				}
				for i := 0; i < 2; i++ {
					v, ok := q.Dequeue()
					if !ok || v != expect {
						t.Fatalf("round %d: Dequeue = %v,%v want %d", round, v, ok, expect)
					}
					expect++
				}
			}
			// Drain the remainder in order.
			for ; expect < next; expect++ {
				v, ok := q.Dequeue()
				if !ok || v != expect {
					t.Fatalf("drain: Dequeue = %v,%v want %d", v, ok, expect)
				}
			}
		})
	}
}

// TestConservationAndProducerOrder checks the two queue invariants under
// concurrency: every enqueued value is dequeued exactly once (conservation)
// and values from one producer are dequeued in that producer's order
// (FIFO is per-producer observable even under arbitrary interleavings).
func TestConservationAndProducerOrder(t *testing.T) {
	for name, mk := range variants() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			const producers, consumers, perProducer = 4, 4, 10000
			total := producers * perProducer
			var consumed atomic.Int64
			seen := make([]atomic.Uint32, total+1)
			lastSeen := make([][]uint64, consumers) // per-consumer sequences

			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(id uint64) {
					defer wg.Done()
					for i := uint64(0); i < perProducer; i++ {
						// Value encodes producer and sequence: id*per+seq+1.
						q.Enqueue(id*perProducer + i + 1)
					}
				}(uint64(p))
			}
			for c := 0; c < consumers; c++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					for consumed.Load() < int64(total) {
						v, ok := q.Dequeue()
						if !ok {
							// Yield on an empty queue: four consumers
							// spinning on Dequeue would otherwise starve
							// the producers of the CPUs they need.
							runtime.Gosched()
							continue
						}
						consumed.Add(1)
						if v == 0 || v > uint64(total) {
							t.Errorf("foreign value %d dequeued", v)
							return
						}
						if seen[v].Add(1) != 1 {
							t.Errorf("value %d dequeued twice", v)
							return
						}
						lastSeen[id] = append(lastSeen[id], v)
					}
				}(c)
			}
			wg.Wait()
			if consumed.Load() != int64(total) {
				t.Fatalf("consumed %d of %d", consumed.Load(), total)
			}
			for v := 1; v <= total; v++ {
				if seen[v].Load() != 1 {
					t.Fatalf("value %d dequeued %d times", v, seen[v].Load())
				}
			}
			// Per-producer order within each consumer's local sequence must
			// be increasing (a consumer can never see producer P's k-th
			// element before its j-th for j<k).
			for c := range lastSeen {
				last := make([]int64, producers)
				for i := range last {
					last[i] = -1
				}
				for _, v := range lastSeen[c] {
					p := int((v - 1) / perProducer)
					seq := int64((v - 1) % perProducer)
					if seq <= last[p] {
						t.Fatalf("consumer %d saw producer %d out of order", c, p)
					}
					last[p] = seq
				}
			}
			if q.Len() != 0 {
				t.Fatalf("Len = %d after draining", q.Len())
			}
		})
	}
}

func TestConcurrentMixedSizeStable(t *testing.T) {
	// Equal enqueue/dequeue pressure starting from a non-empty queue: the
	// final size must equal initial + enqueues - successful dequeues.
	for name, mk := range variants() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			const initial = 1000
			for i := 0; i < initial; i++ {
				q.Enqueue(uint64(i + 1))
			}
			const goroutines, iters = 8, 5000
			var deq atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						if (i+id)%2 == 0 {
							q.Enqueue(uint64(i + 2))
						} else {
							if _, ok := q.Dequeue(); ok {
								deq.Add(1)
							}
						}
					}
				}(g)
			}
			wg.Wait()
			wantLen := int64(initial) + int64(goroutines*iters/2) - deq.Load()
			if int64(q.Len()) != wantLen {
				t.Fatalf("Len = %d, want %d", q.Len(), wantLen)
			}
		})
	}
}

func TestVictimThreshold(t *testing.T) {
	q := NewOptikVictim(0)
	if q.Threshold() != DefaultVictimThreshold {
		t.Fatalf("default threshold = %d", q.Threshold())
	}
	q5 := NewOptikVictim(5)
	if q5.Threshold() != 5 {
		t.Fatalf("threshold = %d, want 5", q5.Threshold())
	}
}

func TestVictimPathDirect(t *testing.T) {
	// Deterministically force the victim path: hold the tail lock, park one
	// direct enqueuer behind it so NumQueued exceeds the threshold, then
	// launch a second enqueue that must divert to the victim queue.
	q := NewOptikVictim(1)
	q.tailLock.Lock() // NumQueued = 1
	direct := make(chan struct{})
	go func() {
		q.Enqueue(111) // direct path (1 <= threshold), parks on the lock
		close(direct)
	}()
	for q.tailLock.NumQueued() != 2 {
		// wait until the direct enqueuer drew its ticket
	}
	victim := make(chan struct{})
	go func() {
		q.Enqueue(222) // sees NumQueued=2 > 1: victim path, batch owner
		close(victim)
	}()
	// Wait until the victim enqueue parked its node.
	for {
		q.victim.lock.Lock()
		parked := q.victim.head != nil
		q.victim.lock.Unlock()
		if parked {
			break
		}
	}
	select {
	case <-victim:
		t.Fatal("victim enqueue returned before the batch was drained")
	default:
	}
	q.tailLock.Unlock() // serve the direct enqueue, then the batch owner
	<-direct
	<-victim
	got := map[uint64]bool{}
	for i := 0; i < 2; i++ {
		v, ok := q.Dequeue()
		if !ok {
			t.Fatal("missing element")
		}
		got[v] = true
	}
	if !got[111] || !got[222] {
		t.Fatalf("dequeued %v, want {111, 222}", got)
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("queue should be empty")
	}
}

func BenchmarkEnqueueDequeuePairs(b *testing.B) {
	for name, mk := range variants() {
		b.Run(name, func(b *testing.B) {
			q := mk()
			for i := 0; i < 1000; i++ {
				q.Enqueue(uint64(i))
			}
			b.RunParallel(func(pb *testing.PB) {
				i := uint64(0)
				for pb.Next() {
					if i&1 == 0 {
						q.Enqueue(i)
					} else {
						q.Dequeue()
					}
					i++
				}
			})
		})
	}
}
