// Connection-lifecycle tests: frames larger than the read buffer, whole or
// trickled across idle-grace deadline wake-ups, buffer pool accounting
// returning to its floor under churn, idle-grace buffer release,
// idle-longest-first load shedding, and client recovery from overload via
// backoff.

package server

import (
	"bufio"
	"bytes"
	"fmt"
	"log"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// onConnDriver runs body as the "goroutine" subtest, named for the server's
// connection driver: one goroutine per connection.
func onConnDriver(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	t.Run("goroutine", body)
}

// TestConnModeBigFrame round-trips a frame several times larger than the
// read buffer: the engine must grow the buffer to hold it whole.
func TestConnModeBigFrame(t *testing.T) { onConnDriver(t, testBigFrame) }

func testBigFrame(t *testing.T) {
	val := strings.Repeat("x", 2000)
	var pipe []byte
	pipe = append(pipe, fmt.Sprintf("*3\r\n$3\r\nSET\r\n$3\r\nbig\r\n$%d\r\n%s\r\n", len(val), val)...)
	pipe = append(pipe, "GET big\r\nQUIT\r\n"...)
	want := fmt.Sprintf(":0\r\n$%d\r\n%s\r\n+OK\r\n", len(val), val)
	_, _, addr := startServer(t, WithBufferSize(512))
	if got := roundTrip(t, addr, pipe); string(got) != want {
		t.Fatalf("big-frame transcript:\n got %q\nwant %q", got, want)
	}
}

// pingRaw round-trips one PING on a raw connection.
func pingRaw(t *testing.T, conn net.Conn, r *bufio.Reader) {
	t.Helper()
	if _, err := conn.Write([]byte("PING\r\n")); err != nil {
		t.Fatalf("write PING: %v", err)
	}
	if got := readN(t, r, 7); got != "+PONG\r\n" {
		t.Fatalf("ping reply %q", got)
	}
}

// TestTrickledFrame feeds one command a few bytes at a time with pauses
// longer than the idle grace, on a connection that has already parked once
// and so has the grace deadline armed: the deadline fires mid-frame, and
// the half-arrived frame must stay in the connection's buffer across every
// wake-up — the grace must not take the buffers out from under it.
func TestTrickledFrame(t *testing.T) {
	_, _, addr := startServer(t, WithIdleGrace(20*time.Millisecond))
	conn, r := dialRaw(t, addr)
	pingRaw(t, conn, r)
	for _, part := range []string{"GE", "T k", "1\r\n"} {
		if _, err := conn.Write([]byte(part)); err != nil {
			t.Fatalf("write %q: %v", part, err)
		}
		time.Sleep(60 * time.Millisecond) // several graces per pause
	}
	if got := readN(t, r, 5); got != "$-1\r\n" {
		t.Fatalf("trickled GET reply: %q", got)
	}
}

// TestTrickledBigFrame streams a frame several times larger than the read
// buffer in small bursts with pauses longer than the idle grace, so its
// bytes are never all in the kernel receive queue at once. Each time the
// buffer fills mid-frame it must grow, and the frame keep waiting in it
// across the deadline wake-ups: a deadline mid-frame is "read on", never
// an idle connection or a dead one.
func TestTrickledBigFrame(t *testing.T) {
	val := strings.Repeat("y", 2000) // ~4x the 512B read buffer
	frame := fmt.Sprintf("*3\r\n$3\r\nSET\r\n$3\r\nbig\r\n$%d\r\n%s\r\n", len(val), val)
	_, _, addr := startServer(t, WithBufferSize(512), WithIdleGrace(3*time.Millisecond))
	conn, r := dialRaw(t, addr)
	pingRaw(t, conn, r)
	for len(frame) > 0 {
		n := min(300, len(frame))
		if _, err := conn.Write([]byte(frame[:n])); err != nil {
			t.Fatalf("burst write: %v", err)
		}
		frame = frame[n:]
		time.Sleep(10 * time.Millisecond)
	}
	if got := readN(t, r, 4); got != ":0\r\n" {
		t.Fatalf("trickled big SET reply: %q", got)
	}
	if _, err := conn.Write([]byte("GET big\r\n")); err != nil {
		t.Fatalf("GET write: %v", err)
	}
	want := fmt.Sprintf("$%d\r\n%s\r\n", len(val), val)
	if got := readN(t, r, len(want)); got != want {
		t.Fatalf("GET after trickled big SET returned wrong bytes (%d read)", len(got))
	}
}

// TestBufferResidency pins that a connection's memory follows the bytes it
// actually holds: a bulk header announcing 8 MiB reserves nothing before a
// body byte arrives, and the buffers a 1 MiB SET and the GET of it grew
// are back at their pooled sizes once those are answered.
func TestBufferResidency(t *testing.T) { onConnDriver(t, testBufferResidency) }

func testBufferResidency(t *testing.T) {
	srv, _, addr := startServer(t)
	atRest := int64(3 * srv.opts.bufSize) // in + out
	conn, r := dialRaw(t, addr)
	if _, err := conn.Write([]byte("PING\r\n*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$8388608\r\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if got := readN(t, r, 7); got != "+PONG\r\n" {
		t.Fatalf("ping reply %q", got)
	}
	time.Sleep(20 * time.Millisecond) // let the engine see the header, if it had not
	if got := srv.buffersResident.Load(); got != atRest {
		t.Fatalf("buffers_resident = %d behind an announced 8 MiB bulk with no body, want %d", got, atRest)
	}
	conn.Close()
	waitFor(t, "the closed conn's buffers to be released", func() bool { return srv.buffersResident.Load() == 0 })

	conn, r = dialRaw(t, addr)
	val := strings.Repeat("v", 1<<20)
	if _, err := fmt.Fprintf(conn, "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$%d\r\n%s\r\nGET k\r\n", len(val), val); err != nil {
		t.Fatalf("write: %v", err)
	}
	want := fmt.Sprintf(":0\r\n$%d\r\n%s\r\n", len(val), val)
	if got := readN(t, r, len(want)); got != want {
		t.Fatalf("1 MiB SET/GET round trip returned wrong bytes (%d read)", len(got))
	}
	waitFor(t, "the grown buffers to return to their pooled sizes", func() bool {
		return srv.buffersResident.Load() == atRest
	})
}

// TestConnChurn churns a few thousand connections through the server and
// checks the lifecycle bookkeeping returns to its floor: no connections
// open, no pooled buffers still charged.
func TestConnChurn(t *testing.T) { onConnDriver(t, testConnChurn) }

func testConnChurn(t *testing.T) {
	total := 2000
	if testing.Short() {
		total = 256
	}
	srv, _, addr := startServer(t)
	const workers = 32
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		n := total / workers
		if w < total%workers {
			n++
		}
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := pingOnce(addr); err != nil {
					errs <- err
					return
				}
			}
		}(n)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatalf("churn worker: %v", err)
	}
	waitFor(t, "open conns to drain", func() bool { return srv.active.Load() == 0 })
	waitFor(t, "buffer charge to return to 0", func() bool { return srv.buffersResident.Load() == 0 })
	if got := srv.accepted.Load(); got < uint64(total) {
		t.Fatalf("accepted %d conns, want >= %d", got, total)
	}
}

// pingOnce dials, round-trips two pipelined PINGs, and closes.
func pingOnce(addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write([]byte("PING\r\nPING\r\n")); err != nil {
		return err
	}
	buf := make([]byte, 14)
	for read := 0; read < len(buf); {
		n, err := conn.Read(buf[read:])
		if err != nil {
			return err
		}
		read += n
	}
	if string(buf) != "+PONG\r\n+PONG\r\n" {
		return fmt.Errorf("bad ping replies %q", buf)
	}
	return nil
}

// TestIdleRelease checks the tiered-buffer lifecycle on one connection:
// buffers stay charged while it talks — across grace deadlines that fire
// between its requests — are released once it sits idle past the grace
// while the connection stays open, and are transparently re-acquired when
// it speaks again.
func TestIdleRelease(t *testing.T) {
	const grace = 100 * time.Millisecond
	srv, _, addr := startServer(t, WithIdleGrace(grace))
	conn, r := dialRaw(t, addr)
	pingRaw(t, conn, r)
	if srv.buffersResident.Load() == 0 {
		t.Fatal("no buffer charge while the connection is active")
	}
	// Used well within the grace, the conn keeps its buffers through the
	// deadlines that fire between its requests.
	for end := time.Now().Add(3 * grace); time.Now().Before(end); {
		last := time.Now()
		time.Sleep(grace / 10)
		if srv.buffersResident.Load() == 0 && time.Since(last) < grace/2 {
			t.Fatalf("buffers released %v after the conn last spoke, inside the %v grace", time.Since(last), grace)
		}
		pingRaw(t, conn, r)
	}
	waitFor(t, "idle buffers to be released", func() bool { return srv.buffersResident.Load() == 0 })
	if got := srv.active.Load(); got != 1 {
		t.Fatalf("conn count after idle release: %d, want 1 (release must not close)", got)
	}
	// Released means unreachable: no argument view of the last request
	// may keep the read buffer alive once the pool lets it go.
	args := serverSide(srv, conn).req.args
	for _, arg := range args[:cap(args)] {
		if arg != nil {
			t.Fatalf("an idle conn's request still holds a view %q into its released read buffer", arg)
		}
	}
	pingRaw(t, conn, r) // buffers silently re-acquired
	if srv.buffersResident.Load() == 0 {
		t.Fatal("no buffer charge after the connection resumed")
	}
}

// TestShedIdleLongest checks the shedding order: pushing the population
// past the high-water mark sheds the connection idle the longest, with the
// busy reply readable ahead of the FIN, while younger connections stay
// usable. The conns are either silent (parked on their first byte with no
// buffers) or have spoken under a 1 ms grace, so their handlers have been
// woken by grace deadlines and have released their buffers by the shed;
// either way the shedder owns the close and the busy reply must arrive.
func TestShedIdleLongest(t *testing.T) {
	for _, spoken := range []bool{false, true} {
		name := "silent"
		if spoken {
			name = "spoken"
		}
		t.Run(name, func(t *testing.T) {
			srv, _, addr := startServer(t, WithShedWater(2), WithIdleGrace(time.Millisecond))
			dial := func() (net.Conn, *bufio.Reader) {
				conn, r := dialRaw(t, addr)
				if spoken {
					pingRaw(t, conn, r)
				}
				return conn, r
			}
			connA, rA := dial()
			waitFor(t, "conn A accepted", func() bool { return srv.active.Load() == 1 })
			serverA := serverSide(srv, connA)
			time.Sleep(20 * time.Millisecond) // make A measurably idle-longer
			connB, rB := dial()
			waitFor(t, "conn B accepted", func() bool { return srv.active.Load() == 2 })
			time.Sleep(20 * time.Millisecond)
			connC, rC := dialRaw(t, addr) // pushes past the water mark: A is shed
			if got := readN(t, rA, len(busyReply)); got != string(busyReply) {
				t.Fatalf("shed conn A read %q, want busy reply", got)
			}
			if _, err := rA.ReadByte(); err == nil {
				t.Fatal("shed conn A still open after busy reply, want EOF")
			}
			// The EOF is the FIN; the socket itself must be closed too, by
			// the shedder, since the handler leaves a shed conn alone.
			waitFor(t, "conn A's server side to be closed", func() bool { return closed(serverA.nc) })
			if got := srv.shed.Load(); got != 1 {
				t.Fatalf("conns_shed = %d, want 1", got)
			}
			pingRaw(t, connB, rB)
			pingRaw(t, connC, rC)
		})
	}
}

// serverSide returns the server's state for a client connection.
func serverSide(srv *Server, c net.Conn) *connState {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for nc, cs := range srv.conns {
		if nc.RemoteAddr().String() == c.LocalAddr().String() {
			return cs
		}
	}
	panic("no server side for " + c.LocalAddr().String())
}

// closed reports whether nc's socket has been closed, without touching
// its deadlines or reading from it.
func closed(nc net.Conn) bool {
	rc, err := nc.(*net.TCPConn).SyscallConn()
	return err != nil || rc.Control(func(uintptr) {}) != nil
}

// TestOverloadClientRecovery runs the acceptance scenario: client load at
// twice -maxconns. In-budget connections must stay responsive the whole
// time; over-budget clients are rejected with the busy reply and must
// recover on their own — backoff, redial, replay — once capacity frees up.
func TestOverloadClientRecovery(t *testing.T) { onConnDriver(t, testOverloadClientRecovery) }

func testOverloadClientRecovery(t *testing.T) {
	const budget = 4
	srv, _, addr := startServer(t, WithMaxConns(budget), WithShedWater(0))
	inBudget := make([]*Client, budget)
	for i := range inBudget {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatalf("dial in-budget %d: %v", i, err)
		}
		t.Cleanup(cl.Close)
		if !cl.Ping() {
			t.Fatalf("in-budget client %d ping failed", i)
		}
		inBudget[i] = cl
	}
	waitFor(t, "budget to fill", func() bool { return srv.active.Load() == budget })

	type result struct {
		ok      bool
		retries uint64
	}
	results := make(chan result, budget)
	for i := 0; i < budget; i++ { // 2× maxconns total offered load
		go func() {
			cl, err := Dial(addr)
			if err != nil {
				results <- result{}
				return
			}
			defer cl.Close()
			cl.SetRetry(200)
			results <- result{ok: cl.Ping(), retries: cl.Retries()}
		}()
	}

	// The in-budget connections must answer while the server is
	// bouncing the overload.
	waitFor(t, "over-budget conns to be rejected", func() bool { return srv.rejected.Load() > 0 })
	for round := 0; round < 3; round++ {
		for i, cl := range inBudget {
			if !cl.Ping() {
				t.Fatalf("in-budget client %d unresponsive during overload", i)
			}
		}
	}
	for _, cl := range inBudget {
		cl.Close()
	}
	var retries uint64
	for i := 0; i < budget; i++ {
		r := <-results
		if !r.ok {
			t.Fatalf("over-budget client %d never recovered", i)
		}
		retries += r.retries
	}
	if retries == 0 {
		t.Fatal("over-budget clients recovered without retrying — rejection never happened?")
	}
	if srv.rejected.Load() == 0 {
		t.Fatal("conns_rejected stayed 0 under 2x overload")
	}
}

// TestStatsConnFields checks the connection STATS fields exist and are
// numeric (the Client.Stats contract), and that `poller`, removed with
// the second connection driver, is gone.
func TestStatsConnFields(t *testing.T) { onConnDriver(t, testStatsConnFields) }

func testStatsConnFields(t *testing.T) {
	_, _, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	stats := cl.Stats()
	for _, field := range []string{"conns_open", "conns_rejected", "conns_shed", "buffers_resident"} {
		if _, ok := stats[field]; !ok {
			t.Errorf("STATS missing %q", field)
		}
	}
	if _, ok := stats["poller"]; ok {
		t.Error("STATS still carries the removed poller field")
	}
	if got := stats["conns_open"]; got != 1 {
		t.Errorf("conns_open = %d, want 1", got)
	}
	if stats["buffers_resident"] <= 0 {
		t.Errorf("buffers_resident = %d while a conn is mid-request, want > 0", stats["buffers_resident"])
	}
}

// TestClientCloseIdempotent pins the Close contract: double Close is safe
// and a closed client never redials.
func TestClientCloseIdempotent(t *testing.T) {
	_, _, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if !cl.Ping() {
		t.Fatal("ping failed")
	}
	cl.Close()
	cl.Close() // must not panic or disturb anything
	defer func() {
		if recover() == nil {
			t.Fatal("op on closed client did not panic")
		}
		if got := cl.Retries(); got != 0 {
			t.Fatalf("closed client retried %d times, want 0 (no redial after Close)", got)
		}
	}()
	cl.Ping()
}

// TestSetValueSurvivesBufferMove pins the view-validity rule: a SET's value
// reaches the store as a view into the read buffer, and the store copies it
// inside that request's dispatch, before room can move the buffer. Six SETs
// are followed, in the same segment, by the front of a frame several times
// the 512 B buffer: making room for it first slides the buffer over the
// SETs' bytes and then doubles it into a different backing array. Every
// value must come back byte-exact.
func TestSetValueSurvivesBufferMove(t *testing.T) { onConnDriver(t, testSetValueSurvivesBufferMove) }

func testSetValueSurvivesBufferMove(t *testing.T) {
	const small = 6
	big := strings.Repeat("x", 2000)
	frame := fmt.Sprintf("*3\r\n$3\r\nSET\r\n$3\r\nbig\r\n$%d\r\n%s\r\n", len(big), big)
	var head, gets []byte
	want := ""
	for i := 0; i < small; i++ {
		head = fmt.Appendf(head, "SET k%d value-%d\r\n", i, i)
		gets = fmt.Appendf(gets, "GET k%d\r\n", i)
		want += fmt.Sprintf("$7\r\nvalue-%d\r\n", i)
	}
	head = append(head, frame[:1200]...)
	gets = append(gets, "GET big\r\n"...)
	want += fmt.Sprintf("$%d\r\n%s\r\n", len(big), big)
	_, _, addr := startServer(t, WithBufferSize(512))
	conn, r := dialRaw(t, addr)
	if _, err := conn.Write(head); err != nil {
		t.Fatalf("write: %v", err)
	}
	time.Sleep(50 * time.Millisecond) // the half frame sits in a grown buffer
	if _, err := conn.Write([]byte(frame[1200:])); err != nil {
		t.Fatalf("write: %v", err)
	}
	if got := readN(t, r, 4*(small+1)); got != strings.Repeat(":0\r\n", small+1) {
		t.Fatalf("SET replies: %q", got)
	}
	if _, err := conn.Write(gets); err != nil {
		t.Fatalf("write: %v", err)
	}
	if got := readN(t, r, len(want)); got != want {
		t.Fatalf("a SET's value changed when the read buffer moved:\n got %.120q…\nwant %.120q…", got, want)
	}
}

// TestBufferCycleReturnsToPool pins that every buffer the engine trades
// goes back to its pool tier. A cycle is a connection's buffer life in
// brief: acquire, room doubling `in` under a partial frame that fills it,
// room shrinking it back once the frame is consumed, write swapping an
// `out` a large reply grew for one of the pooled size, release. A put the
// engine drops leaves a tier short, and the next get from it allocates a
// whole buffer, 512 B at the least; with every put in place a cycle
// allocates only the pools' own bookkeeping.
func TestBufferCycleReturnsToPool(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under -race; allocation counts mean nothing")
	}
	cs := newConnState(New(nil, WithBufferSize(512)), discardConn{})
	home := cs.srv.opts.bufSize
	cycle := func() {
		cs.acquireBuffers()
		cs.in = cs.in[:cap(cs.in)]
		cs.room(0) // a partial frame fills `in`: it doubles
		cs.room(len(cs.in))
		if cap(cs.in) != home {
			t.Fatalf("in holds %d bytes once the frame is consumed, want %d", cap(cs.in), home)
		}
		// A reply past out's capacity grows it (drawn from the pool here, as
		// append would allocate it, so that the cycle itself allocates
		// nothing); the old array is left behind.
		grown := append(getBytes(4*home), cs.out...)
		putBytes(cs.out)
		cs.out = append(grown, '+')
		if err := cs.write(); err != nil || cap(cs.out) != 2*home {
			t.Fatalf("write = %v and left out at %d bytes, want nil and %d", err, cap(cs.out), 2*home)
		}
		cs.releaseBuffers()
	}
	cycle() // fill the tiers
	const cycles = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / cycles
	if per >= 512 {
		t.Fatalf("a buffer cycle allocates %d B, want under 512: a put is missing", per)
	}
	t.Logf("a buffer cycle allocates %d B", per)
	if got := cs.srv.buffersResident.Load(); got != 0 {
		t.Fatalf("buffers_resident = %d after release, want 0", got)
	}
}

// discardConn is a net.Conn whose writes all succeed; nothing else of it
// may be called.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// TestConnPanicContained pins the containment backstop: a request whose
// handling panics (staged through the dispatch hook, above every lock)
// ends its own connection without a reply and is logged, a second
// connection's PING is still answered, and STATS counts the panic.
func TestConnPanicContained(t *testing.T) { onConnDriver(t, testConnPanicContained) }

func testConnPanicContained(t *testing.T) {
	testHookDispatch = func(cmd []byte) {
		if cmdEq(cmd, "LEN") {
			panic("injected dispatch panic")
		}
	}
	var logged syncBuffer
	log.SetOutput(&logged)
	t.Cleanup(func() {
		testHookDispatch = nil
		log.SetOutput(os.Stderr)
	})
	_, _, addr := startServer(t)
	other, otherR := dialRaw(t, addr)
	pingRaw(t, other, otherR)
	victim, victimR := dialRaw(t, addr)
	if _, err := victim.Write([]byte("LEN\r\n")); err != nil {
		t.Fatalf("write LEN: %v", err)
	}
	if b, err := victimR.ReadByte(); err == nil {
		t.Fatalf("the panicking connection answered %q; want it closed", b)
	}
	pingRaw(t, other, otherR)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	if got := cl.Stats()["conn_panics"]; got != 1 {
		t.Fatalf("conn_panics = %d, want 1", got)
	}
	if !strings.Contains(logged.String(), "injected dispatch panic") {
		t.Fatalf("the panic was not logged; log reads %q", logged.String())
	}
}

// syncBuffer is a bytes.Buffer the log package may write from server
// goroutines while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
