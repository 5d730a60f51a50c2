// optik-server serves the OPTIK string store over TCP, speaking
// the RESP-flavored protocol in docs/PROTOCOL.md (GET/SET/DEL,
// MGET/MSET/MDEL, LEN, STATS, QUIESCE, PING, QUIT; inline or multibulk
// framing, pipelining-friendly).
//
// Usage:
//
//	optik-server [-addr :7979] [-shard-buckets 1024] [-maxconns 0]
//	             [-idle-grace 5s] [-shed-water 0]
//	             [-byte-budget 0] [-ordered]
//
// Flags:
//
//	-addr          listen address (default :7979)
//	-shard-buckets the hash table's floor bucket count, rounded up to a
//	               power of two (default 1024; the ordered store is one
//	               skip list and ignores it)
//	-maxconns      concurrent connection cap (default 0 = unlimited)
//	-idle-grace    how long a conn may sit idle before its buffers are
//	               returned to the pool (default 5s; buffers come back
//	               on the next readable byte). Each conn is served by
//	               its own goroutine; an idle one keeps only that
//	               goroutine's stack and its registration
//	-shed-water    population high-water mark above which the server
//	               sheds idle-longest conns with -ERR busy retry
//	               (default: 90% of -maxconns when that is set)
//	-byte-budget   byte budget of the store (default 0 = unbounded):
//	               above it, maintenance passes and write-path hands
//	               evict sampled entries, least used first, back to the
//	               budget; STATS reports bytes_used, evicted and the
//	               get_hits/get_misses a cache is judged by
//	-ordered       back the server with the skip-list store instead of
//	               the hash store: keys must be decimal uint64s, and the
//	               ordered command family (SCAN, RANGE, MIN, MAX) comes
//	               alive
//
// Try it with netcat:
//
//	$ printf 'SET user:1 alice\r\nGET user:1\r\nLEN\r\nQUIT\r\n' | nc localhost 7979
//	:0
//	$5
//	alice
//	:1
//	+OK
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"github.com/optik-go/optik/server"
	"github.com/optik-go/optik/store"
)

func main() {
	addr := flag.String("addr", ":7979", "listen address")
	shardBuckets := flag.Int("shard-buckets", 1024, "the hash table's floor bucket count (ignored with -ordered)")
	maxConns := flag.Int("maxconns", 0, "concurrent connection cap (0 = unlimited)")
	idleGrace := flag.Duration("idle-grace", 0, "idle grace before a conn's buffers return to the pool (0 = default 5s)")
	shedWater := flag.Int("shed-water", 0, "shed idle conns above this population (0 = default: 90% of -maxconns)")
	byteBudget := flag.Int64("byte-budget", 0, "byte budget of the store, 0 = unbounded")
	ordered := flag.Bool("ordered", false, "back the server with the skip-list store (decimal keys, SCAN/RANGE/MIN/MAX)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: optik-server [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	sopts := []server.Option{server.WithMaxConns(*maxConns)}
	if *idleGrace > 0 {
		sopts = append(sopts, server.WithIdleGrace(*idleGrace))
	}
	if *shedWater > 0 {
		sopts = append(sopts, server.WithShedWater(*shedWater))
	}
	stOpts := []store.Option{store.WithShardBuckets(*shardBuckets), store.WithByteBudget(*byteBudget)}
	var srv *server.Server
	var st *store.Strings
	if *ordered {
		sorted := store.NewSortedStrings(stOpts...)
		srv, st = server.NewOrdered(sorted, sopts...), &sorted.Strings
	} else {
		st = store.NewStrings(stOpts...)
		srv = server.New(st, sopts...)
	}
	defer st.Close()

	bound, err := srv.Listen(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "optik-server:", err)
		os.Exit(1)
	}
	fmt.Printf("optik-server: serving the %s store on %s (maxconns %d)\n",
		storeKind(*ordered), bound, *maxConns)

	// SIGINT/SIGTERM drain the server before the store's scheduler stops.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("optik-server: shutting down")
		srv.Close()
	}()

	if err := srv.Serve(); err != nil {
		fmt.Fprintln(os.Stderr, "optik-server:", err)
		os.Exit(1)
	}
}

// storeKind labels the startup banner by backing store.
func storeKind(ordered bool) string {
	if ordered {
		return "ordered"
	}
	return "hash"
}
