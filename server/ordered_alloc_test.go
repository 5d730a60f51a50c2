package server

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/store"
)

// TestRangeSteadyStateAllocs pins the allocation-free scan path: on a warm
// connection a RANGE-of-100 or a SCAN COUNT 100 — parse, dispatch, the
// store's scan, reply framing — allocates nothing, because the page is
// gathered in the connection's reusable scratch instead of a fresh pair of
// slices per request. The engine is driven without a socket (the
// BenchmarkPipeline-harness shape, minus the transport): a request parsed
// out of the connection's read buffer and dispatched, the reply discarded.
func TestRangeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under -race; allocation counts mean nothing")
	}
	st := store.NewSortedStrings(store.WithoutMaintenance())
	defer st.Close()
	for k := uint64(1); k <= 4096; k++ {
		st.Set(k, "value-of-thirty-two-bytes-exactly")
	}
	cs := newConnState(NewOrdered(st), nil)
	cs.acquireBuffers()
	defer cs.releaseBuffers()

	for _, cmd := range []string{
		"RANGE 1000 1099\r\n",
		"RANGE 1000 4096 LIMIT 100\r\n",
		"SCAN 2000 COUNT 100\r\n",
		"*4\r\n$4\r\nSCAN\r\n$1\r\n0\r\n$5\r\nCOUNT\r\n$3\r\n100\r\n",
	} {
		var replyLen int
		run := func() {
			cs.in = append(cs.in[:0], cmd...)
			if n, err := cs.req.parse(cs.in, cap(cs.in)); n != len(cmd) || err != nil {
				t.Fatalf("%q: parse = %d, %v", cmd, n, err)
			}
			if err := cs.dispatch(); err != nil {
				t.Fatalf("%q: dispatch: %v", cmd, err)
			}
			replyLen = len(cs.out)
			cs.out = cs.out[:0]
		}
		run() // warm: sizes the page scratch and the store's pooled scan page
		if replyLen < 100*len("$4\r\n1000\r\n$33\r\n\r\n") {
			t.Fatalf("%q: %d-byte reply cannot hold a 100-entry page", cmd, replyLen)
		}
		if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
			t.Errorf("%q: %.2f allocs per request on a warm connection, want 0", cmd, allocs)
		}
		for i, v := range cs.vals {
			if v != "" {
				t.Fatalf("%q: page scratch slot %d still pins a value after the reply", cmd, i)
			}
		}
	}
}

// TestAppendBulkUint pins the single-pass formatter byte for byte against
// the obvious two-pass framing, over every digit-count boundary.
func TestAppendBulkUint(t *testing.T) {
	vals := []uint64{0, math.MaxUint64, ds.MaxKey}
	for p := uint64(1); ; p *= 10 {
		vals = append(vals, p-1, p, p+1)
		if p > math.MaxUint64/10 {
			break
		}
	}
	for _, v := range vals {
		digits := strconv.FormatUint(v, 10)
		want := fmt.Sprintf("$%d\r\n%s\r\n", len(digits), digits)
		if got := string(appendBulkUint([]byte("prefix"), v)); got != "prefix"+want {
			t.Errorf("appendBulkUint(%d) = %q, want %q", v, got, "prefix"+want)
		}
	}
}

// BenchmarkRangeEngine measures one RANGE-of-100 through the engine alone —
// parse, dispatch, the store's scan, reply framing — with no socket and no
// client: the same harness as TestRangeSteadyStateAllocs over a store larger
// than the CPU caches (1 M keys, every fourth key present, 33-byte values),
// so the skip-list descent and the value reads miss as they do in
// ordered_scan.
func BenchmarkRangeEngine(b *testing.B) {
	const population, stride, page = 1 << 20, 4, 100
	st := store.NewSortedStrings(store.WithoutMaintenance())
	defer st.Close()
	for k := uint64(1); k <= population; k++ {
		st.Set(k*stride, "value-of-thirty-two-bytes-exactly")
	}
	cs := newConnState(NewOrdered(st), nil)
	cs.acquireBuffers()
	defer cs.releaseBuffers()

	b.ReportAllocs()
	b.ResetTimer()
	var k uint64
	for i := 0; i < b.N; i++ {
		k = k*2862933555777941757 + 3037000493 // lcg walk over the population
		lo := (k%(population-page) + 1) * stride
		cs.in = append(cs.in[:0], "RANGE "...)
		cs.in = strconv.AppendUint(cs.in, lo, 10)
		cs.in = append(cs.in, ' ')
		cs.in = strconv.AppendUint(cs.in, lo+page*stride-1, 10)
		cs.in = append(cs.in, crlf...)
		if n, err := cs.req.parse(cs.in, cap(cs.in)); n != len(cs.in) || err != nil {
			b.Fatalf("parse = %d, %v", n, err)
		}
		if err := cs.dispatch(); err != nil {
			b.Fatal(err)
		}
		if len(cs.out) < page*len("$1\r\n4\r\n$33\r\n\r\n") {
			b.Fatalf("%d-byte reply cannot hold a %d-entry page", len(cs.out), page)
		}
		cs.out = cs.out[:0]
	}
}
