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
// any workload driver. The default variant pipelines scalar GETs, each
// executed as it parses; multibulk replaces them with real MGET frames,
// one store call per frame, bounding what merging requests could recover.
// The budget variant serves the same GETs from a store under a byte budget
// just roomy enough to hold the population (4,096 entries of ~60 charged
// bytes in 256 KiB): every GET also counts a read on the read sketch and
// touches its entry's stamp, and the sketch, sized for that budget (2,048
// words), halves once ten GETs per word have raised a counter, ~20,000
// GETs into the timed loop — a sketch that allocated would show in any
// run longer than that.
func BenchmarkPipeline(b *testing.B) {
	for _, depth := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			benchPipeline(b, depth, false, 0)
		})
	}
	for _, depth := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("depth=%d/multibulk", depth), func(b *testing.B) {
			benchPipeline(b, depth, true, 0)
		})
	}
	b.Run("depth=64/budget", func(b *testing.B) {
		benchPipeline(b, 64, false, 1<<18)
	})
}

func benchPipeline(b *testing.B, depth int, multibulk bool, budget int64) {
	st := store.NewStrings(store.WithShardBuckets(1024), store.WithoutMaintenance(), store.WithByteBudget(budget))
	defer st.Close()
	srv := New(st)
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

// BenchmarkGetEngine measures one pipelined GET through the engine alone —
// parse, dispatch, the store's lookup, reply framing — with no socket and
// no client, over a store larger than the CPU caches (1 M keys of 64-byte
// values, read uniformly), so each lookup misses as it does in kv_pipe64.
// Each iteration feeds pump a segment of 64 GETs, the bench/ depth.
func BenchmarkGetEngine(b *testing.B) {
	const population, depth = 1 << 20, 64
	st := store.NewStrings(store.WithoutMaintenance())
	defer st.Close()
	val := strings.Repeat("v", 64)
	for i := 0; i < population; i++ {
		st.Set("user:"+strconv.Itoa(i), val)
	}
	segments := make([][]byte, 1024)
	var k uint64
	for i := range segments {
		for j := 0; j < depth; j++ {
			k = k*2862933555777941757 + 3037000493 // lcg walk over the population
			segments[i] = fmt.Appendf(segments[i], "GET user:%d\r\n", k%population)
		}
	}
	cs := newConnState(New(st), discardConn{})
	cs.acquireBuffers()
	defer cs.releaseBuffers()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += depth {
		cs.in = append(cs.in[:0], segments[i/depth%len(segments)]...)
		if !cs.pump() {
			b.Fatal("pump ended the connection")
		}
		cs.out = cs.out[:0]
	}
}

// BenchmarkRange measures the ordered family's wire path per returned
// entry: one client pages RANGE-of-100 windows over a prefilled ordered
// store on loopback. With the page gathered in the connection's reusable
// scratch the server side allocates nothing per request
// (TestRangeSteadyStateAllocs pins that without the socket); what remains
// here is the skip-list walk, the value reads and the reply framing.
func BenchmarkRange(b *testing.B) {
	st := store.NewSortedStrings(store.WithoutMaintenance())
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
// 64 SETs of 64-byte values in flight against a loopback server, so
// allocs/op counts exactly what storing a value costs — the one object the
// store builds for it, header and bytes together. The parser hands the
// store a view, the warm index reuses its slots and nodes, and the client
// side (a prebuilt buffer out, fixed-size replies in) allocates nothing.
// fresh times inserts — the keys are deleted again with the timer stopped
// — and overwrite times SETs over keys already present, alternating
// between two values so that every SET stores: the displaced value leaves
// the index and costs nothing more. restate times SETs of the value each
// key already holds, which the store decides on its validated read and
// which therefore allocate nothing at all.
func BenchmarkPipelineSet(b *testing.B) {
	b.Run("fresh", func(b *testing.B) { benchPipelineSet(b, "fresh") })
	b.Run("overwrite", func(b *testing.B) { benchPipelineSet(b, "overwrite") })
	b.Run("restate", func(b *testing.B) { benchPipelineSet(b, "restate") })
}

func benchPipelineSet(b *testing.B, mode string) {
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
	vals := [2]string{strings.Repeat("v", 64), strings.Repeat("w", 64)}
	var sets [2][population / depth][]byte
	var dels [population / depth][]byte
	for i := range dels {
		for j := 0; j < depth; j++ {
			key := strconv.Itoa(i*depth + j + 1)
			for v, val := range vals {
				sets[v][i] = fmt.Appendf(sets[v][i], "*3\r\n$3\r\nSET\r\n$%d\r\n%s\r\n$%d\r\n%s\r\n", len(key), key, len(val), val)
			}
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
	for i := range dels {
		roundTrip(sets[0][i]) // warm the index
		if mode == "fresh" {
			roundTrip(dels[i])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += depth {
		k := i / depth % len(dels)
		v := 0
		if mode == "overwrite" {
			v = 1 - i/population%2 // the warm-up stored vals[0]; every lap flips
		}
		roundTrip(sets[v][k])
		if mode == "fresh" {
			b.StopTimer()
			roundTrip(dels[k])
			b.StartTimer()
		}
	}
}
