// kvstore: a concurrent in-memory key-value store — the workload the
// paper's introduction motivates for hash tables, served the way the
// ROADMAP's production system serves it. A mixed fleet of reader and
// writer goroutines simulates a read-mostly cache in front of a database:
// GETs dominate, SETs and DELs trickle in, a slice of the readers fetch
// in batches (MGet), and the store reports throughput, hit rates and the
// maintenance counters.
//
// The machinery lives in the library now: store.Strings maps string keys
// to string values through a sharded OPTIK index whose value word is the
// immutable value object itself (the layer started life in this example
// and was lifted into store/values.go when the network server needed it
// too — the server package serves the same type over TCP). There is no
// lock anywhere on the GET/SET/DEL path: an index read validates its
// bucket version and hands back the value, one hop from key to bytes.
//
// Run with:
//
//	go run ./examples/kvstore [-readers 8] [-writers 2] [-shards 0]
//	                          [-batch 16] [-duration 2s]
package main

import (
	"flag"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"math/rand/v2"

	"github.com/optik-go/optik/store"
)

func main() {
	readers := flag.Int("readers", 8, "reader goroutines")
	writers := flag.Int("writers", 2, "writer goroutines")
	shards := flag.Int("shards", 0, "index shards (0 = one per core)")
	batch := flag.Int("batch", 16, "keys per batched GET (half the readers batch)")
	duration := flag.Duration("duration", 2*time.Second, "run duration")
	flag.Parse()

	st := store.NewStrings(store.WithShards(*shards), store.WithShardBuckets(1024))
	defer st.Close()
	// Seed the cache.
	for i := 0; i < 2048; i++ {
		st.Set(fmt.Sprintf("user:%04d", i), fmt.Sprintf("profile-%d", i))
	}

	var (
		gets, hits, sets, dels atomic.Uint64
		stop                   atomic.Bool
		wg                     sync.WaitGroup
	)
	for r := 0; r < *readers; r++ {
		wg.Add(1)
		batched := r%2 == 1 && *batch > 1
		go func() {
			defer wg.Done()
			keys := make([]string, *batch)
			vals := make([]string, *batch)
			found := make([]bool, *batch)
			for !stop.Load() {
				if batched {
					for i := range keys {
						keys[i] = fmt.Sprintf("user:%04d", rand.IntN(4096))
					}
					st.MGet(keys, vals, found)
					h := 0
					for i := range found {
						if found[i] {
							h++
						}
					}
					hits.Add(uint64(h))
					gets.Add(uint64(len(keys)))
				} else {
					key := fmt.Sprintf("user:%04d", rand.IntN(4096))
					if _, ok := st.Get(key); ok {
						hits.Add(1)
					}
					gets.Add(1)
				}
			}
		}()
	}
	for w := 0; w < *writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				key := fmt.Sprintf("user:%04d", rand.IntN(4096))
				if rand.IntN(2) == 0 {
					st.Set(key, "updated")
					sets.Add(1)
				} else {
					st.Del(key)
					dels.Add(1)
				}
			}
		}()
	}

	time.Sleep(*duration)
	stop.Store(true)
	wg.Wait()

	elapsed := duration.Seconds()
	fmt.Printf("kvstore over %v with %d readers / %d writers on %d shards\n",
		*duration, *readers, *writers, st.Index().Shards())
	fmt.Printf("  GET: %8.2f Kops/s (hit rate %.1f%%)\n",
		float64(gets.Load())/elapsed/1e3, 100*float64(hits.Load())/float64(max(gets.Load(), 1)))
	fmt.Printf("  SET: %8.2f Kops/s\n", float64(sets.Load())/elapsed/1e3)
	fmt.Printf("  DEL: %8.2f Kops/s\n", float64(dels.Load())/elapsed/1e3)
	retired, _, reused := st.Index().ReclaimStats()
	fmt.Printf("  index: %d keys in %d buckets, %d resizes, %d/%d chain nodes retired/reused\n",
		st.Len(), st.Index().Buckets(), st.Index().Resizes(), retired, reused)
	fmt.Printf("  bytes: %d used\n", st.BytesUsed())
}
