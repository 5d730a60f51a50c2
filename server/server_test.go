package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/optik-go/optik/store"
)

// startServer brings up a server on a free loopback port and tears it
// down with the test.
func startServer(t *testing.T, opts ...Option) (*Server, *store.Strings, string) {
	t.Helper()
	st := store.NewStrings(store.WithShardBuckets(64))
	srv := New(st, opts...)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		srv.Close()
		st.Close()
	})
	return srv, st, addr.String()
}

// dialRaw opens a raw connection for byte-level protocol tests.
func dialRaw(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn, bufio.NewReader(conn)
}

func readN(t *testing.T, r *bufio.Reader, n int) string {
	t.Helper()
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatalf("short read: %v", err)
	}
	return string(buf)
}

// TestServerScalarTranscript pins the exact bytes of a scalar session —
// the same transcript the CI smoke job and README quickstart show.
func TestServerScalarTranscript(t *testing.T) {
	_, _, addr := startServer(t)
	conn, r := dialRaw(t, addr)

	send := "PING\r\nSET user:1 alice\r\nGET user:1\r\nSET user:1 bob\r\nGET user:1\r\n" +
		"LEN\r\nDEL user:1\r\nGET user:1\r\nDEL user:1\r\nQUIT\r\n"
	want := "+PONG\r\n:0\r\n$5\r\nalice\r\n:1\r\n$3\r\nbob\r\n" +
		":1\r\n:1\r\n$-1\r\n:0\r\n+OK\r\n"
	if _, err := conn.Write([]byte(send)); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := readN(t, r, len(want))
	if got != want {
		t.Fatalf("transcript mismatch:\n got %q\nwant %q", got, want)
	}
	// QUIT closes the connection server-side.
	if _, err := r.ReadByte(); err != io.EOF {
		t.Fatalf("connection still open after QUIT: %v", err)
	}
}

// TestServerPipelinedMixed sends one write holding a pipeline that mixes
// inline and multibulk framing, scalar and batched commands, and asserts
// every reply arrives in request order. Over a 512 B buffer the pipeline
// is read in pieces and the MGET's reply spills mid-frame, so the batch
// flushes more than once.
func TestServerPipelinedMixed(t *testing.T) {
	_, _, addr := startServer(t, withBufferSize(512))
	conn, r := dialRaw(t, addr)

	long := strings.Repeat("x", 300)
	var b strings.Builder
	b.WriteString("*3\r\n$3\r\nset\r\n$1\r\na\r\n$2\r\nv1\r\n") // lower-case, multibulk
	b.WriteString("SET b " + long + "\r\n")
	b.WriteString("MSET c v3 d " + long + "\r\n")
	b.WriteString("MGET a b c d nope\r\n")
	b.WriteString("*2\r\n$4\r\nMGET\r\n$1\r\na\r\n")
	b.WriteString("MDEL a b missing\r\n")
	b.WriteString("LEN\r\n")
	b.WriteString("GET c\r\n")
	want := ":0\r\n:0\r\n:2\r\n" +
		"*5\r\n$2\r\nv1\r\n$300\r\n" + long + "\r\n$2\r\nv3\r\n$300\r\n" + long + "\r\n$-1\r\n" +
		"*1\r\n$2\r\nv1\r\n" +
		":2\r\n:2\r\n$2\r\nv3\r\n"
	if _, err := conn.Write([]byte(b.String())); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := readN(t, r, len(want))
	if got != want {
		t.Fatalf("pipeline mismatch:\n got %q\nwant %q", got, want)
	}
}

// TestServerSoftErrors covers errors after which the connection must stay
// usable: unknown commands and wrong arity.
func TestServerSoftErrors(t *testing.T) {
	_, _, addr := startServer(t)
	conn, r := dialRaw(t, addr)

	cases := []struct{ send, wantPrefix string }{
		{"FROB x\r\n", "-ERR unknown command"},
		{"GET\r\n", "-ERR wrong number of arguments for 'get'"},
		{"SET onlykey\r\n", "-ERR wrong number of arguments for 'set'"},
		{"MSET a 1 b\r\n", "-ERR wrong number of arguments for 'mset'"},
		{"MGET\r\n", "-ERR wrong number of arguments for 'mget'"},
		{"LEN extra\r\n", "-ERR wrong number of arguments for 'len'"},
	}
	for _, c := range cases {
		if _, err := conn.Write([]byte(c.send)); err != nil {
			t.Fatalf("write: %v", err)
		}
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("%q: read: %v", c.send, err)
		}
		if !strings.HasPrefix(line, c.wantPrefix) {
			t.Fatalf("%q: got %q, want prefix %q", c.send, line, c.wantPrefix)
		}
	}
	// The connection survived all of it.
	conn.Write([]byte("PING\r\n"))
	if line, _ := r.ReadString('\n'); line != "+PONG\r\n" {
		t.Fatalf("connection dead after soft errors: %q", line)
	}
}

// TestServerMalformedFrames covers framing violations, each on a fresh
// connection: the server must answer with a protocol error and close.
func TestServerMalformedFrames(t *testing.T) {
	_, _, addr := startServer(t)
	for _, send := range []string{
		"*zap\r\n",                           // unparseable multibulk count
		"*0\r\n",                             // empty array
		"*2000000\r\n",                       // count over maxArgs
		"*1\r\nnope\r\n",                     // array element not a bulk string
		"*1\r\n$-5\r\n",                      // negative bulk length
		"*1\r\n$99999999999999\r\n",          // bulk length over maxBulk
		"*1\r\n$3\r\nabcdef\r\n",             // bulk body longer than declared
		"GET " + strings.Repeat("k", 64<<10), // inline line over the read buffer
	} {
		conn, r := dialRaw(t, addr)
		if _, err := conn.Write([]byte(send)); err != nil {
			t.Fatalf("write: %v", err)
		}
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("%.30q: no error reply before close: %v", send, err)
		}
		if !strings.HasPrefix(line, "-ERR protocol error") {
			t.Fatalf("%.30q: got %q, want protocol error", send, line)
		}
		if _, err := r.ReadByte(); err != io.EOF {
			t.Fatalf("%.30q: connection not closed after protocol error (err=%v)", send, err)
		}
		conn.Close()
	}
}

// TestServerBlankLineDoesNotStallFlush pins the pipelined flush decision
// against trailing blank lines: "PING\r\n\r\n" in one segment must still
// deliver +PONG immediately — the blank line must not count as "more
// input buffered" while the server blocks reading.
func TestServerBlankLineDoesNotStallFlush(t *testing.T) {
	_, _, addr := startServer(t)
	conn, r := dialRaw(t, addr)
	conn.SetDeadline(time.Now().Add(3 * time.Second))
	if _, err := conn.Write([]byte("PING\r\n\r\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	line, err := r.ReadString('\n')
	if err != nil || line != "+PONG\r\n" {
		t.Fatalf("reply stalled behind the blank line: %q, %v", line, err)
	}
}

// TestServerHalfFrameDoesNotStallFlush pins the flush rule on its other
// side: replies owed go out before the engine waits for bytes, even with
// the front half of the next frame already buffered behind them.
func TestServerHalfFrameDoesNotStallFlush(t *testing.T) {
	onConnDriver(t, testServerHalfFrameDoesNotStallFlush)
}

func testServerHalfFrameDoesNotStallFlush(t *testing.T) {
	_, _, addr := startServer(t)
	conn, r := dialRaw(t, addr)
	conn.SetDeadline(time.Now().Add(3 * time.Second))
	if _, err := conn.Write([]byte("PING\r\n*2\r\n$3\r\nGE")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if line, err := r.ReadString('\n'); err != nil || line != "+PONG\r\n" {
		t.Fatalf("reply stalled behind the half-arrived frame: %q, %v", line, err)
	}
	if _, err := conn.Write([]byte("T\r\n$1\r\nk\r\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if got := readN(t, r, 5); got != "$-1\r\n" {
		t.Fatalf("the finished frame's reply: %q", got)
	}
}

// TestReadArrayAggregateCap pins the whole-request size bound: per-arg
// and per-count limits alone admit 8 GiB per request, so the aggregate
// cap must trip once the declared bulks exceed maxRequest — on the
// offending header, before a byte of its body is buffered, and not a byte
// earlier. The bodies are untouched zero pages (the parser steps over a
// body, it does not read it), so the test only materializes the headers.
func TestReadArrayAggregateCap(t *testing.T) {
	buf := append(make([]byte, 0, 9*(maxBulk+16)), "*10\r\n"...)
	header := fmt.Sprintf("$%d\r\n", maxBulk)
	for i := 0; i < 8; i++ {
		buf = append(buf, header...)
		buf = buf[:len(buf)+maxBulk] // the body: zeros, never written
		buf = append(buf, "\r\n"...)
	}
	var q request
	if n, err := q.parse(buf, 512); n != 0 || err != nil {
		t.Fatalf("eight bulks of maxBulk are exactly maxRequest and incomplete: parse = %d, %v, want need-more", n, err)
	}
	buf = append(buf, header...)
	if n, err := q.parse(buf[:len(buf)-1], 512); n != 0 || err != nil {
		t.Fatalf("ninth header one byte short: parse = %d, %v, want need-more", n, err)
	}
	_, err := q.parse(buf, 512)
	var pe *protoError
	if !errors.As(err, &pe) || !strings.Contains(pe.Error(), "exceeds") {
		t.Fatalf("aggregate cap did not trip: %v", err)
	}
}

// TestServerMaxConns pins the connection cap: the over-cap connection is
// told to back off (the busy-reply contract in docs/PROTOCOL.md) and
// soft-closed, earlier ones keep working.
func TestServerMaxConns(t *testing.T) {
	_, _, addr := startServer(t, WithMaxConns(1))
	conn1, r1 := dialRaw(t, addr)
	conn1.Write([]byte("PING\r\n"))
	if line, _ := r1.ReadString('\n'); line != "+PONG\r\n" {
		t.Fatalf("first connection: %q", line)
	}
	_, r2 := dialRaw(t, addr)
	line, err := r2.ReadString('\n')
	if err != nil || line != "-ERR busy retry\r\n" {
		t.Fatalf("over-cap connection: %q, %v", line, err)
	}
	if _, err := r2.ReadByte(); err != io.EOF {
		t.Fatalf("over-cap connection not closed: %v", err)
	}
	conn1.Write([]byte("PING\r\n"))
	if line, _ := r1.ReadString('\n'); line != "+PONG\r\n" {
		t.Fatalf("first connection after rejection: %q", line)
	}
}

// TestServerConcurrentConservation is the stress check of the suite: many
// connections hammer overlapping keys with scalar and pipelined batched
// writes while tracking their own net insert−delete balance; after a
// QUIESCE the server's LEN must equal the sum exactly. Run under -race
// this doubles as the data-race coverage for the whole request path.
func TestServerConcurrentConservation(t *testing.T) {
	_, _, addr := startServer(t)
	const (
		workers  = 6
		keyRange = 2048
		iters    = 400
	)
	var net atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer cl.Close()
			rnd := seed
			next := func() uint64 { // xorshift64
				rnd ^= rnd << 13
				rnd ^= rnd >> 7
				rnd ^= rnd << 17
				return rnd
			}
			keys := make([]uint64, 8)
			vals := make([]uint64, 8)
			found := make([]bool, 8)
			for i := 0; i < iters; i++ {
				switch next() % 4 {
				case 0:
					if _, replaced := cl.Set(next()%keyRange+1, seed); !replaced {
						net.Add(1)
					}
				case 1:
					if _, ok := cl.Del(next()%keyRange + 1); ok {
						net.Add(-1)
					}
				case 2:
					for j := range keys {
						keys[j] = next()%keyRange + 1
						vals[j] = seed
					}
					net.Add(int64(cl.MSet(keys, vals)))
				default:
					for j := range keys {
						keys[j] = next()%keyRange + 1
					}
					cl.MGet(keys, vals, found)
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	cl.Quiesce()
	if got, want := cl.Len(), int(net.Load()); got != want {
		t.Fatalf("conservation violation: LEN = %d, net SET−DEL = %d", got, want)
	}
	stats := cl.Stats()
	if stats["len"] != int64(net.Load()) || stats["commands"] == 0 {
		t.Fatalf("STATS inconsistent: %v", stats)
	}
}

// TestClientRoundTrip exercises the typed client surface end to end.
func TestClientRoundTrip(t *testing.T) {
	_, st, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	if !cl.Ping() {
		t.Fatal("ping failed")
	}
	if _, replaced := cl.Set(7, 70); replaced {
		t.Fatal("fresh Set reported replace")
	}
	if v, ok := cl.Get(7); !ok || v != 70 {
		t.Fatalf("Get(7) = %d, %v", v, ok)
	}
	if _, replaced := cl.Set(7, 71); !replaced {
		t.Fatal("Set did not report replace")
	}
	keys := []uint64{7, 8, 9}
	vals := []uint64{0, 80, 90}
	if ins := cl.MSet(keys[1:], vals[1:]); ins != 2 {
		t.Fatalf("MSet inserted %d, want 2", ins)
	}
	got := make([]uint64, 3)
	found := make([]bool, 3)
	cl.MGet(keys, got, found)
	if !found[0] || !found[1] || !found[2] || got[0] != 71 || got[1] != 80 || got[2] != 90 {
		t.Fatalf("MGet = %v %v", got, found)
	}
	if cl.Len() != 3 || st.Len() != 3 {
		t.Fatalf("Len = %d / %d, want 3", cl.Len(), st.Len())
	}
	if del := cl.MDel([]uint64{7, 8, 9, 10}); del != 3 {
		t.Fatalf("MDel = %d, want 3", del)
	}
	if _, ok := cl.Del(9); ok {
		t.Fatal("Del hit after MDel")
	}
	if stats := cl.Stats(); stats["len"] != 0 || stats["buckets"] < 2 || stats["resizes"] < 0 {
		t.Fatalf("stats plumbing: %v", stats)
	}
}
