// Connection-lifecycle tests for the two conn modes: byte-identical
// transcripts between goroutine-per-conn and the shared poller, buffer
// pool accounting returning to its floor under churn, idle-grace buffer
// release, idle-longest-first load shedding, and client recovery from
// overload via backoff. The transcript property mirrors
// TestCoalesceReplyOrderProperty: the conn mode, like coalescing, must be
// invisible on the wire.

package server

import (
	"bufio"
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// connModes lists the modes to exercise on this platform. ConnModePoller
// is included only where it actually runs (elsewhere it would silently
// fall back and re-test goroutine mode).
func connModes() []ConnMode {
	modes := []ConnMode{ConnModeGoroutine}
	if PollerSupported() {
		modes = append(modes, ConnModePoller)
	}
	return modes
}

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

// TestConnModeTranscriptProperty is the conn-mode counterpart of the
// coalescing property: for random mixed pipelines, a poller-mode server
// must produce a reply stream byte-identical to a goroutine-mode server
// fed the same bytes. A small read buffer forces pipelines to span many
// readiness cycles, exercising the poller's partial-frame parking.
func TestConnModeTranscriptProperty(t *testing.T) {
	if !PollerSupported() {
		t.Skip("poller conn mode not supported on this platform")
	}
	_, _, refAddr := startServer(t, WithBufferSize(512), WithPipeline(4))
	_, _, polAddr := startServer(t, WithBufferSize(512), WithPipeline(4),
		WithConnMode(ConnModePoller))
	rng := rand.New(rand.NewSource(0x90111e4))
	for round := 0; round < 8; round++ {
		pipe := randomPipeline(rng, 120)
		ref := roundTrip(t, refAddr, pipe)
		got := roundTrip(t, polAddr, pipe)
		if !bytes.Equal(ref, got) {
			t.Fatalf("round %d: reply stream diverged between conn modes\npipeline: %q\n ref: %q\n got: %q",
				round, pipe, ref, got)
		}
	}
}

// TestConnModeBigFrame round-trips a frame several times larger than the
// read buffer through both modes: the engine must grow the buffer to hold
// it whole and produce the same bytes either way.
func TestConnModeBigFrame(t *testing.T) {
	val := strings.Repeat("x", 2000)
	var pipe []byte
	pipe = append(pipe, fmt.Sprintf("*3\r\n$3\r\nSET\r\n$3\r\nbig\r\n$%d\r\n%s\r\n", len(val), val)...)
	pipe = append(pipe, "GET big\r\nQUIT\r\n"...)
	want := fmt.Sprintf(":0\r\n$%d\r\n%s\r\n+OK\r\n", len(val), val)
	for _, mode := range connModes() {
		t.Run(mode.String(), func(t *testing.T) {
			_, _, addr := startServer(t, WithBufferSize(512), WithConnMode(mode))
			if got := roundTrip(t, addr, pipe); string(got) != want {
				t.Fatalf("big-frame transcript:\n got %q\nwant %q", got, want)
			}
		})
	}
}

// TestPollerTrickledFrame feeds one command a few bytes at a time with
// pauses longer than the idle grace: the half-arrived frame must park in
// the connection's buffer across readiness cycles — and the idle sweep
// must not steal the buffers out from under it.
func TestPollerTrickledFrame(t *testing.T) {
	if !PollerSupported() {
		t.Skip("poller conn mode not supported on this platform")
	}
	_, _, addr := startServer(t, WithConnMode(ConnModePoller), WithIdleGrace(20*time.Millisecond))
	conn, r := dialRaw(t, addr)
	for _, part := range []string{"GE", "T k", "1\r\n"} {
		if _, err := conn.Write([]byte(part)); err != nil {
			t.Fatalf("write %q: %v", part, err)
		}
		time.Sleep(60 * time.Millisecond) // several sweep ticks per pause
	}
	if got := readN(t, r, 5); got != "$-1\r\n" {
		t.Fatalf("trickled GET reply: %q", got)
	}
}

// TestPollerTrickledBigFrame streams a frame several times larger than
// the read buffer in small bursts with pauses, so its bytes are never all
// in the kernel receive queue at once. Each time the buffer fills mid-frame
// it must grow and the frame keep waiting in it across readiness cycles —
// an EAGAIN mid-frame is "need more", never a dead connection (the bug
// this pins).
func TestPollerTrickledBigFrame(t *testing.T) {
	if !PollerSupported() {
		t.Skip("poller conn mode not supported on this platform")
	}
	val := strings.Repeat("y", 2000) // ~4x the 512B read buffer
	frame := fmt.Sprintf("*3\r\n$3\r\nSET\r\n$3\r\nbig\r\n$%d\r\n%s\r\n", len(val), val)
	_, _, addr := startServer(t, WithBufferSize(512), WithConnMode(ConnModePoller))
	conn, r := dialRaw(t, addr)
	for len(frame) > 0 {
		n := 300
		if n > len(frame) {
			n = len(frame)
		}
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

// TestPollerStalledBigFramesDoNotWedge pins that no poller worker — and
// not the dispatcher, which serves inline when the workers are busy — ever
// blocks reading a socket: more clients than there are workers each send
// the first bufSize+1 bytes of a frame and stall, and a fresh connection
// must still be answered. One stalled frame is then finished and must
// execute.
func TestPollerStalledBigFramesDoNotWedge(t *testing.T) {
	if !PollerSupported() {
		t.Skip("poller conn mode not supported on this platform")
	}
	const bufSize = 512
	srv, _, addr := startServer(t, WithBufferSize(bufSize), WithConnMode(ConnModePoller))
	val := strings.Repeat("z", 2000)
	frame := fmt.Sprintf("*3\r\n$3\r\nSET\r\n$3\r\nbig\r\n$%d\r\n%s\r\n", len(val), val)
	stalled := max(2, runtime.GOMAXPROCS(0)) + 2 // every worker, the dispatcher, and one more
	conns := make([]net.Conn, stalled)
	readers := make([]*bufio.Reader, stalled)
	for i := range conns {
		conns[i], readers[i] = dialRaw(t, addr)
		if _, err := conns[i].Write([]byte(frame[:bufSize+1])); err != nil {
			t.Fatalf("stalled conn %d write: %v", i, err)
		}
	}
	// A half-frame has been read in once its connection's read buffer has
	// doubled to hold it: 2+2 bufSize charged instead of 1+2.
	waitFor(t, "the half-frames to be buffered", func() bool {
		return srv.buffersResident.Load() == int64(stalled*4*bufSize)
	})
	conn, r := dialRaw(t, addr)
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Write([]byte("PING\r\n")); err != nil {
		t.Fatalf("fresh conn write: %v", err)
	}
	if line, err := r.ReadString('\n'); err != nil || line != "+PONG\r\n" {
		t.Fatalf("fresh connection behind %d stalled half-frames: %q, %v", stalled, line, err)
	}
	if _, err := conns[0].Write([]byte(frame[bufSize+1:])); err != nil {
		t.Fatalf("finishing the stalled frame: %v", err)
	}
	if got := readN(t, readers[0], 4); got != ":0\r\n" {
		t.Fatalf("finished frame's reply: %q", got)
	}
}

// TestBufferResidency pins that a connection's memory follows the bytes it
// actually holds, in both modes: a bulk header announcing 8 MiB reserves
// nothing before a body byte arrives, and the buffers a 1 MiB SET and the
// GET of it grew are back at their pooled sizes once those are answered.
func TestBufferResidency(t *testing.T) {
	for _, mode := range connModes() {
		t.Run(mode.String(), func(t *testing.T) {
			srv, _, addr := startServer(t, WithConnMode(mode))
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
		})
	}
}

// TestConnChurn churns a few thousand connections through each mode and
// checks the lifecycle bookkeeping returns to its floor: no connections
// open, no pooled buffers still charged.
func TestConnChurn(t *testing.T) {
	total := 2000
	if testing.Short() {
		total = 256
	}
	for _, mode := range connModes() {
		t.Run(mode.String(), func(t *testing.T) {
			srv, _, addr := startServer(t, WithConnMode(mode))
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
		})
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

// TestPollerIdleRelease checks the tiered-buffer lifecycle on an idle
// poller connection: buffers are charged while it talks, released after
// the idle grace while the connection stays open, and transparently
// re-acquired when it speaks again.
func TestPollerIdleRelease(t *testing.T) {
	if !PollerSupported() {
		t.Skip("poller conn mode not supported on this platform")
	}
	srv, _, addr := startServer(t, WithConnMode(ConnModePoller), WithIdleGrace(30*time.Millisecond))
	conn, r := dialRaw(t, addr)
	ping := func() {
		t.Helper()
		if _, err := conn.Write([]byte("PING\r\n")); err != nil {
			t.Fatalf("write: %v", err)
		}
		if got := readN(t, r, 7); got != "+PONG\r\n" {
			t.Fatalf("ping reply %q", got)
		}
	}
	ping()
	if srv.buffersResident.Load() == 0 {
		t.Fatal("no buffer charge while the connection is active")
	}
	waitFor(t, "idle buffers to be released", func() bool { return srv.buffersResident.Load() == 0 })
	if got := srv.active.Load(); got != 1 {
		t.Fatalf("conn count after idle release: %d, want 1 (release must not close)", got)
	}
	ping() // buffers silently re-acquired
	if srv.buffersResident.Load() == 0 {
		t.Fatal("no buffer charge after the connection resumed")
	}
}

// TestShedIdleLongest checks the shedding order: pushing the population
// past the high-water mark sheds the connection idle the longest, with the
// busy reply readable ahead of the FIN, while younger connections stay
// usable.
func TestShedIdleLongest(t *testing.T) {
	for _, mode := range connModes() {
		t.Run(mode.String(), func(t *testing.T) {
			srv, _, addr := startServer(t, WithConnMode(mode), WithShedWater(2))
			connA, rA := dialRaw(t, addr)
			_ = connA
			waitFor(t, "conn A accepted", func() bool { return srv.active.Load() == 1 })
			time.Sleep(20 * time.Millisecond) // make A measurably idle-longer
			connB, rB := dialRaw(t, addr)
			waitFor(t, "conn B accepted", func() bool { return srv.active.Load() == 2 })
			time.Sleep(20 * time.Millisecond)
			connC, rC := dialRaw(t, addr) // pushes past the water mark: A is shed
			if got := readN(t, rA, len(busyReply)); got != string(busyReply) {
				t.Fatalf("shed conn A read %q, want busy reply", got)
			}
			if _, err := rA.ReadByte(); err == nil {
				t.Fatal("shed conn A still open after busy reply, want EOF")
			}
			if got := srv.shed.Load(); got != 1 {
				t.Fatalf("conns_shed = %d, want 1", got)
			}
			for i, cr := range []struct {
				c net.Conn
				r interface{ ReadByte() (byte, error) }
			}{{connB, rB}, {connC, rC}} {
				if _, err := cr.c.Write([]byte("PING\r\n")); err != nil {
					t.Fatalf("surviving conn %d write: %v", i, err)
				}
				buf := make([]byte, 7)
				for read := 0; read < len(buf); read++ {
					b, err := cr.r.ReadByte()
					if err != nil {
						t.Fatalf("surviving conn %d read: %v", i, err)
					}
					buf[read] = b
				}
				if string(buf) != "+PONG\r\n" {
					t.Fatalf("surviving conn %d reply %q", i, buf)
				}
			}
		})
	}
}

// TestOverloadClientRecovery runs the acceptance scenario: client load at
// twice -maxconns. In-budget connections must stay responsive the whole
// time; over-budget clients are rejected with the busy reply and must
// recover on their own — backoff, redial, replay — once capacity frees up.
func TestOverloadClientRecovery(t *testing.T) {
	for _, mode := range connModes() {
		t.Run(mode.String(), func(t *testing.T) {
			const budget = 4
			srv, _, addr := startServer(t, WithConnMode(mode), WithMaxConns(budget), WithShedWater(0))
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
		})
	}
}

// TestStatsConnFields checks the new STATS fields exist, are numeric (the
// Client.Stats contract) and report the live conn mode.
func TestStatsConnFields(t *testing.T) {
	for _, mode := range connModes() {
		t.Run(mode.String(), func(t *testing.T) {
			_, _, addr := startServer(t, WithConnMode(mode))
			cl, err := Dial(addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer cl.Close()
			stats := cl.Stats()
			for _, field := range []string{"conns_open", "conns_rejected", "conns_shed", "buffers_resident", "poller"} {
				if _, ok := stats[field]; !ok {
					t.Errorf("STATS missing %q", field)
				}
			}
			if got := stats["conns_open"]; got != 1 {
				t.Errorf("conns_open = %d, want 1", got)
			}
			wantPoller := int64(0)
			if mode == ConnModePoller && PollerSupported() {
				wantPoller = 1
			}
			if got := stats["poller"]; got != wantPoller {
				t.Errorf("poller = %d, want %d", got, wantPoller)
			}
			if stats["buffers_resident"] <= 0 {
				t.Errorf("buffers_resident = %d while a conn is mid-request, want > 0", stats["buffers_resident"])
			}
		})
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

// TestStagedSetSurvivesBufferMove pins the view-validity rule: a staged
// SET's value is a view into the read buffer until its run drains, so the
// run must drain before the buffer moves. An open write run is followed, in
// the same segment, by the front of a frame several times the 512 B buffer:
// making room for it first slides the buffer over the staged values' bytes
// and then doubles it into a different backing array. Every value must come
// back byte-exact.
func TestStagedSetSurvivesBufferMove(t *testing.T) {
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
	for _, mode := range connModes() {
		t.Run(mode.String(), func(t *testing.T) {
			_, _, addr := startServer(t, WithBufferSize(512), WithConnMode(mode))
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
				t.Fatalf("a staged value changed when the read buffer moved:\n got %.120q…\nwant %.120q…", got, want)
			}
		})
	}
}

// TestConnPanicContained pins the containment backstop in both conn
// modes: a request whose handling panics (staged through the dispatch
// hook, above every lock) ends its own connection without a reply and is
// logged, a second connection's PING is still answered, and STATS counts
// the panic.
func TestConnPanicContained(t *testing.T) {
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
	for _, mode := range connModes() {
		t.Run(mode.String(), func(t *testing.T) {
			_, _, addr := startServer(t, WithConnMode(mode))
			other, otherR := dialRaw(t, addr)
			ping := func() {
				t.Helper()
				if _, err := other.Write([]byte("PING\r\n")); err != nil {
					t.Fatalf("write PING: %v", err)
				}
				if got := readN(t, otherR, len("+PONG\r\n")); got != "+PONG\r\n" {
					t.Fatalf("PING on the other connection = %q", got)
				}
			}
			ping()
			victim, victimR := dialRaw(t, addr)
			if _, err := victim.Write([]byte("LEN\r\n")); err != nil {
				t.Fatalf("write LEN: %v", err)
			}
			if b, err := victimR.ReadByte(); err == nil {
				t.Fatalf("the panicking connection answered %q; want it closed", b)
			}
			ping()
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
		})
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
