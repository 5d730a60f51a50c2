package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"
)

// TestCoalesceReplyOrderProperty is the coalescing correctness property:
// for random mixed pipelines — scalar and multi-key commands, inline and
// multibulk framing, duplicate keys, arity errors, barrier commands —
// the reply stream of a coalescing server must be byte-identical to a
// coalesce-disabled reference fed the same bytes. Both servers start
// empty and see identical command histories, so any divergence is a
// coalescing bug: a reply out of arrival order, framing that leaked the
// batching, or a staged run observed by a barrier.
func TestCoalesceReplyOrderProperty(t *testing.T) {
	for _, bound := range []int{1, 3, 7, 64, DefaultCoalesce} {
		t.Run(fmt.Sprintf("coalesce=%d", bound), func(t *testing.T) {
			_, _, refAddr := startServer(t, WithCoalesce(0), WithPipeline(4))
			_, _, coAddr := startServer(t, WithCoalesce(bound), WithPipeline(4))
			rng := rand.New(rand.NewSource(int64(0xC0A1 + bound)))
			for round := 0; round < 8; round++ {
				pipe := randomPipeline(rng, 150)
				ref := roundTrip(t, refAddr, pipe)
				got := roundTrip(t, coAddr, pipe)
				if !bytes.Equal(ref, got) {
					t.Fatalf("round %d: reply stream diverged\npipeline: %q\n ref: %q\n got: %q",
						round, pipe, ref, got)
				}
			}
		})
	}
}

// roundTrip writes one pipeline (ending in QUIT) and reads the whole
// reply stream to EOF.
func roundTrip(t *testing.T, addr string, pipe []byte) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(20 * time.Second))
	if _, err := conn.Write(pipe); err != nil {
		t.Fatalf("write: %v", err)
	}
	out, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return out
}

// randomPipeline builds n random commands followed by QUIT, mixing
// inline and multibulk framing. Keys come from a small space so runs hit
// duplicates, overwrites and misses; commands include every coalescable
// family, the barriers, and soft arity errors (never malformed frames —
// those kill the connection).
func randomPipeline(rng *rand.Rand, n int) []byte {
	var b []byte
	key := func() string { return fmt.Sprintf("k%d", rng.Intn(24)) }
	val := func() string { return fmt.Sprintf("v%d", rng.Intn(1000)) }
	emit := func(args ...string) {
		if rng.Intn(2) == 0 { // inline
			for i, a := range args {
				if i > 0 {
					b = append(b, ' ')
				}
				b = append(b, a...)
			}
			b = append(b, "\r\n"...)
		} else { // multibulk
			b = append(b, fmt.Sprintf("*%d\r\n", len(args))...)
			for _, a := range args {
				b = append(b, fmt.Sprintf("$%d\r\n%s\r\n", len(a), a)...)
			}
		}
	}
	for i := 0; i < n; i++ {
		switch r := rng.Intn(20); {
		case r < 6:
			emit("GET", key())
		case r < 10:
			emit("SET", key(), val())
		case r < 12:
			emit("DEL", key())
		case r < 14:
			args := []string{"MGET"}
			for j := rng.Intn(8) + 1; j > 0; j-- {
				args = append(args, key())
			}
			emit(args...)
		case r < 16:
			args := []string{"MSET"}
			for j := rng.Intn(4) + 1; j > 0; j-- {
				args = append(args, key(), val())
			}
			emit(args...)
		case r < 17:
			args := []string{"MDEL"}
			for j := rng.Intn(5) + 1; j > 0; j-- {
				args = append(args, key())
			}
			emit(args...)
		case r < 18:
			emit([]string{"PING", "LEN"}[rng.Intn(2)])
		default:
			// Soft errors: wrong arity and unknown commands are run
			// barriers whose error reply must still land in order.
			switch rng.Intn(4) {
			case 0:
				emit("GET")
			case 1:
				emit("SET", key())
			case 2:
				emit("MGET")
			default:
				emit("FROB", key())
			}
		}
	}
	emit("QUIT")
	return b
}

// TestCoalesceStats checks that runs merging two or more pipelined
// requests are counted, and that request/response traffic is not.
func TestCoalesceStats(t *testing.T) {
	srv, _, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	// Request/response: each GET drains as a run of one. No coalescing.
	c.Set(1, 10)
	c.Get(1)
	c.Get(2)
	if got := srv.coalescedBatches.Load(); got != 0 {
		t.Fatalf("coalesced_batches after scalar traffic = %d, want 0", got)
	}

	// A pipelined batch of 8 GETs coalesces into one run of 8 keys.
	keys := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	c.MGet(keys, vals, found)
	if got := srv.coalescedBatches.Load(); got != 1 {
		t.Fatalf("coalesced_batches after pipelined MGet = %d, want 1", got)
	}
	if got := srv.coalescedKeys.Load(); got != 8 {
		t.Fatalf("coalesced_keys after pipelined MGet = %d, want 8", got)
	}
	if !found[0] || vals[0] != 10 {
		t.Fatalf("pipelined MGet lost the value: vals=%v found=%v", vals, found)
	}

	// The stats surface through STATS.
	stats := c.Stats()
	if stats["coalesced_batches"] != 1 || stats["coalesced_keys"] != 8 {
		t.Fatalf("STATS coalesced_batches=%d coalesced_keys=%d, want 1/8",
			stats["coalesced_batches"], stats["coalesced_keys"])
	}
}

// TestCoalesceRunsSpanThePipeline pins the run lengths of a 64-deep
// pipeline that arrives whole: four alternating 16-command SET and GET runs
// are four coalesced batches of 64 keys in all. The engine drains the open
// run whenever it is about to move the read buffer (staged SET values are
// views into it); that must not cut a run short while its commands are
// still buffered.
func TestCoalesceRunsSpanThePipeline(t *testing.T) {
	var pipe []byte
	for run := 0; run < 4; run++ {
		for i := 0; i < 16; i++ {
			if run%2 == 0 {
				pipe = fmt.Appendf(pipe, "*3\r\n$3\r\nSET\r\n$3\r\nk%02d\r\n$2\r\nv%d\r\n", i, run)
			} else {
				pipe = fmt.Appendf(pipe, "GET k%02d\r\n", i)
			}
		}
	}
	pipe = append(pipe, "QUIT\r\n"...)
	for _, mode := range connModes() {
		t.Run(mode.String(), func(t *testing.T) {
			srv, _, addr := startServer(t, WithConnMode(mode))
			want := strings.Repeat(":0\r\n", 16) + strings.Repeat("$2\r\nv0\r\n", 16) +
				strings.Repeat(":1\r\n", 16) + strings.Repeat("$2\r\nv2\r\n", 16) + "+OK\r\n"
			if got := roundTrip(t, addr, pipe); string(got) != want {
				t.Fatalf("transcript:\n got %q\nwant %q", got, want)
			}
			if b, k := srv.coalescedBatches.Load(), srv.coalescedKeys.Load(); b != 4 || k != 64 {
				t.Fatalf("coalesced_batches=%d coalesced_keys=%d, want 4 and 64", b, k)
			}
		})
	}
}

// TestClientMultibulkRoundTrip drives the client's multibulk batch mode
// against a live server, including a batch large enough to require
// chunking under the per-frame argument cap.
func TestClientMultibulkRoundTrip(t *testing.T) {
	_, _, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	c.SetMultibulk(true)

	const n = maxBatchKeys + 100 // forces a second MGET/MDEL frame
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
		vals[i] = uint64(i) * 3
	}
	if ins := c.MSet(keys, vals); ins != n {
		t.Fatalf("MSet inserted %d, want %d", ins, n)
	}
	got := make([]uint64, n)
	found := make([]bool, n)
	c.MGet(keys, got, found)
	for i := range keys {
		if !found[i] || got[i] != vals[i] {
			t.Fatalf("MGet[%d] = %d,%v want %d,true", i, got[i], found[i], vals[i])
		}
	}
	if del := c.MDel(keys); del != n {
		t.Fatalf("MDel removed %d, want %d", del, n)
	}
	if c.Len() != 0 {
		t.Fatalf("Len after MDel = %d, want 0", c.Len())
	}
}
