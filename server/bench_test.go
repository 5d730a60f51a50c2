package server

import (
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"

	"github.com/optik-go/optik/store"
)

// BenchmarkPipeline measures the wire path per key at several pipeline
// depths: one client goroutine keeps depth GET commands in flight against
// a loopback server on a prefilled store. This is the protocol+transport
// overhead the wire adds on top of the in-process store, isolated from
// any workload driver. The default variant exercises the coalescer
// (pipelined scalars merged server-side); coalesce=off is the
// one-execution-per-request baseline and multibulk replaces the scalar
// pipeline with real MGET frames, bounding what coalescing can recover.
func BenchmarkPipeline(b *testing.B) {
	for _, depth := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			benchPipeline(b, depth, nil, false)
		})
	}
	for _, depth := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("depth=%d/coalesce=off", depth), func(b *testing.B) {
			benchPipeline(b, depth, []Option{WithCoalesce(0)}, false)
		})
		b.Run(fmt.Sprintf("depth=%d/multibulk", depth), func(b *testing.B) {
			benchPipeline(b, depth, nil, true)
		})
	}
}

func benchPipeline(b *testing.B, depth int, opts []Option, multibulk bool) {
	st := store.NewStrings(store.WithShardBuckets(1024), store.WithoutMaintenance())
	defer st.Close()
	srv := New(st, opts...)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(addr.String())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	cl.SetMultibulk(multibulk)

	const population = 4096
	keys := make([]uint64, depth)
	vals := make([]uint64, depth)
	found := make([]bool, depth)
	for i := 0; i < population; i++ {
		vals[0] = uint64(i)
		cl.Set(uint64(i)+1, vals[0])
	}
	b.ReportAllocs()
	b.ResetTimer()
	var k uint64
	for i := 0; i < b.N; i += depth {
		for j := range keys {
			k = k*2862933555777941757 + 3037000493 // lcg walk over the population
			keys[j] = k%population + 1
		}
		cl.MGet(keys, vals, found)
	}
}

// BenchmarkRange measures the ordered family's wire path per returned
// entry: one client pages RANGE-of-100 windows over a prefilled ordered
// store on loopback. With the page gathered in the connection's reusable
// scratch the server side allocates nothing per request
// (TestRangeSteadyStateAllocs pins that without the socket); what remains
// here is the skip-list walk, the arena reads and the reply framing.
func BenchmarkRange(b *testing.B) {
	st := store.NewSortedStrings(store.WithKeyMax(1<<16), store.WithoutMaintenance())
	defer st.Close()
	srv := NewOrdered(st)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(addr.String())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()

	const population, page = 1 << 16, 100
	for i := uint64(1); i <= population; i++ {
		cl.Set(i, i)
	}
	keys := make([]uint64, page)
	vals := make([]uint64, page)
	b.ReportAllocs()
	b.ResetTimer()
	var k uint64
	for i := 0; i < b.N; i += page {
		k = k*2862933555777941757 + 3037000493 // lcg walk over the population
		lo := k%(population-page) + 1
		if got := cl.Range(lo, lo+page-1, keys, vals); got != page {
			b.Fatalf("RANGE %d %d returned %d entries, want %d", lo, lo+page-1, got, page)
		}
	}
}

// BenchmarkPipelineSet measures the write path per key: one client keeps
// 64 SETs of 64-byte values in flight against a loopback server. Every
// timed SET is a fresh insert — the keys are deleted again with the timer
// stopped — so allocs/op counts exactly what storing a value costs: the
// one object the store builds for it, header and bytes together. The
// parser hands the store a view, the warm index and arena reuse what the
// deletes gave back, and the client side (a prebuilt buffer out, fixed-size
// replies in) allocates nothing. An overwriting SET pays one more small
// object, the free-list node its displaced slot is pushed on.
func BenchmarkPipelineSet(b *testing.B) {
	st := store.NewStrings(store.WithShardBuckets(1024), store.WithoutMaintenance())
	defer st.Close()
	srv := New(st)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()

	const population, depth = 4096, 64
	val := strings.Repeat("v", 64)
	var sets, dels [population / depth][]byte
	for i := range sets {
		for j := 0; j < depth; j++ {
			key := strconv.Itoa(i*depth + j + 1)
			sets[i] = fmt.Appendf(sets[i], "*3\r\n$3\r\nSET\r\n$%d\r\n%s\r\n$%d\r\n%s\r\n", len(key), key, len(val), val)
			dels[i] = fmt.Appendf(dels[i], "*2\r\n$3\r\nDEL\r\n$%d\r\n%s\r\n", len(key), key)
		}
	}
	replies := make([]byte, depth*len(":0\r\n"))
	roundTrip := func(pipe []byte) {
		if _, err := conn.Write(pipe); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(conn, replies); err != nil {
			b.Fatal(err)
		}
	}
	for i := range sets {
		roundTrip(sets[i]) // warm the index and the arena
		roundTrip(dels[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += depth {
		k := i / depth % len(sets)
		roundTrip(sets[k])
		b.StopTimer()
		roundTrip(dels[k])
		b.StartTimer()
	}
}
