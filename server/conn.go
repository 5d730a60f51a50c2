// connState is the per-connection protocol engine, shared verbatim by both
// conn modes: goroutine-per-conn (runLoop, the portable default — one
// goroutine blocks on the socket) and the shared poller (poller_linux.go —
// epoll workers call pump whenever the socket turns readable). There is
// exactly ONE implementation of parse → coalesce → dispatch → flush; the
// modes differ only in what "need more bytes" does — a blocking Read, or a
// nonblocking one and a re-arm — and in when buffers are resident.
//
// The engine owns two byte slices. `in` holds the bytes received and not
// yet parsed; parse (proto.go) cuts requests off its front, their arguments
// views into it. `out` collects replies until one Write sends them. The
// views stay valid because `in` moves in exactly one place — room, which
// pump calls only once every parsed request has been dispatched and the
// staged run drained (keys are hashed at staging, but a write run's values
// are views too, live until the store copies them at the drain). A frame
// larger than `in` grows it geometrically as the bytes arrive, bounded by
// the parser's header checks; a reply larger than `out` grows that; each
// returns to its pooled size once emptied, so memory follows the bytes in
// flight, not the largest frame the connection ever saw.
//
// Lifecycle: a connection starts parked with no buffers — an idle conn
// costs its registration, per the OPTIK principle of paying only when
// there is work. Buffers are acquired from the tiered pools (bufpool.go)
// on the first readable byte and released at teardown (goroutine mode) or
// additionally after an idle grace period (poller mode). The parked/busy/
// shed state word coordinates the owner (handler goroutine or poller
// worker) with the load shedder: the shedder may claim only a parked conn,
// so it never writes concurrently with the protocol engine.

package server

import (
	"io"
	"net"
	"sync/atomic"
	"time"
)

// Connection lifecycle states (connState.state).
const (
	connParked int32 = iota // no request in flight; the shedder may claim it
	connBusy                // the handler/worker owns the conn
	connShed                // the shedder claimed it; the owner exits quietly
)

// busyReply is the overload reply: written to a rejected accept or into a
// shed idle connection, ahead of a FIN. Clients back off and redial (the
// server.Client does this itself; see docs/PROTOCOL.md "Overload").
var busyReply = []byte("-ERR busy retry\r\n")

// pollerWriteTimeout bounds every poller-mode reply write. Workers — and
// the dispatcher when it help-drains or sheds — write replies
// synchronously; without a deadline one stalled peer (zero TCP window,
// dead host) would wedge them until the TCP stack itself gives up,
// minutes later. A client that cannot accept reply bytes for this long is
// treated as dead and torn down. Goroutine-mode conns write without one —
// a wedged write there costs one parked goroutine, not a shared worker.
const pollerWriteTimeout = 5 * time.Second

// connPoller is what a poller-registered connection knows how to do beyond
// the shared engine; satisfied by pollConn (linux). It keeps server.go
// portable: non-linux builds never construct one.
type connPoller interface {
	// shed tears the connection down after the shedder claimed it (the
	// state is already connShed): busy reply, FIN, unregister, close.
	shed()
}

// connState carries one connection through either conn mode.
type connState struct {
	srv *Server
	nc  net.Conn

	// Protocol engine state; nil/empty while buffers are not resident.
	in      []byte // received and not yet parsed
	out     []byte // replies not yet written
	co      *coalescer
	req     request
	charged int64 // bytes this conn has on Server.buffersResident
	// What the batch in progress owes the server's counters: requests
	// dispatched, GET/MGET keys found and not found (see account).
	pending      int
	hits, misses int

	state      atomic.Int32
	lastActive atomic.Int64 // UnixNano of the last claim; shed picks the smallest
	resident   atomic.Bool  // buffers held (lock-free pre-filter for the idle sweep)

	poll connPoller // nil in goroutine mode
}

func newConnState(s *Server, nc net.Conn) *connState {
	cs := &connState{srv: s, nc: nc}
	cs.touch()
	return cs
}

func (cs *connState) touch() { cs.lastActive.Store(time.Now().UnixNano()) }
func (cs *connState) park()  { cs.state.Store(connParked) }
func (cs *connState) claim() bool {
	return cs.state.CompareAndSwap(connParked, connBusy)
}

// acquireBuffers checks the engine's working set out of the tiered pools.
// Caller guarantees buffers are not already resident. out is twice the
// spill threshold so that only a single reply larger than the threshold
// can outgrow it.
func (cs *connState) acquireBuffers() {
	n := cs.srv.opts.bufSize
	cs.in = getBytes(n)
	cs.out = getBytes(2 * n)
	cs.co = getCoalescer()
	cs.charge()
	cs.resident.Store(true)
}

// releaseBuffers returns the working set to the pools. Idempotent. Callers
// release only when nothing is staged or buffered (idle) or the connection
// is dead (teardown).
func (cs *connState) releaseBuffers() {
	if cs.in == nil {
		return
	}
	putBytes(cs.in)
	putBytes(cs.out)
	putCoalescer(cs.co)
	cs.in, cs.out, cs.co = nil, nil, nil
	cs.resident.Store(false)
	cs.charge()
}

// charge squares the server's buffers_resident gauge with what the two
// slices hold right now.
func (cs *connState) charge() {
	if held := int64(cap(cs.in) + cap(cs.out)); held != cs.charged {
		cs.srv.buffersResident.Add(held - cs.charged)
		cs.charged = held
	}
}

// idleReleasable reports whether the engine holds nothing that would be
// lost by releasing the buffers: no partial frame, no staged run, no
// unflushed replies. Poller-mode idle sweep calls it under the conn's
// processing lock.
func (cs *connState) idleReleasable() bool {
	return cs.in != nil && len(cs.in) == 0 && cs.pending == 0 &&
		len(cs.out) == 0 && cs.co.kind == runNone
}

// write sends the accumulated replies in one Write and empties out; an out
// that a large reply grew goes back for one of the pooled size.
func (cs *connState) write() error {
	if len(cs.out) == 0 {
		return nil
	}
	cs.charge()
	if cs.poll != nil {
		cs.nc.SetWriteDeadline(time.Now().Add(pollerWriteTimeout))
	}
	_, err := cs.nc.Write(cs.out)
	cs.out = cs.out[:0]
	if home := 2 * cs.srv.opts.bufSize; cap(cs.out) > home {
		putBytes(cs.out)
		cs.out = getBytes(home)
		cs.charge()
	}
	return err
}

// flushBatch ends a pipeline batch: drain the staged run, write every
// reply, account the commands. Reports false when the connection is dead.
func (cs *connState) flushBatch() bool {
	if cs.drain() != nil || cs.write() != nil {
		return false
	}
	cs.account()
	return true
}

// account moves the batch's tallies onto the server's STATS counters: one
// atomic add per counter that moved per batch, nothing per request or key.
func (cs *connState) account() {
	s := cs.srv
	s.commands.Add(uint64(cs.pending))
	if cs.hits != 0 {
		s.getHits.Add(uint64(cs.hits))
	}
	if cs.misses != 0 {
		s.getMisses.Add(uint64(cs.misses))
	}
	cs.pending, cs.hits, cs.misses = 0, 0, 0
}

// pump parses and dispatches every whole request buffered in `in`, then
// readies `in` for the next read. Reports false when the connection is
// finished (error, QUIT, or protocol teardown — all handled here,
// identically in both modes); true means it needs more bytes, and the
// caller owes the client a flushBatch before it waits for them.
func (cs *connState) pump() bool {
	s := cs.srv
	rd := 0
	for {
		n, err := cs.req.parse(cs.in[rd:], s.opts.bufSize)
		if err != nil {
			cs.readFailed(err)
			return false
		}
		if n == 0 {
			// A staged write run holds views into `in`: no view outlives the
			// drain of its run, so the run drains before the buffer moves.
			if cs.drain() != nil {
				return false
			}
			cs.room(rd)
			return true
		}
		rd += n
		cs.pending++
		if cs.dispatch() != nil {
			// errQuit and write errors both end the connection; flush what
			// the client is owed first (QUIT drained the stage itself).
			cs.write()
			cs.account()
			return false
		}
		if cs.spill() != nil {
			return false
		}
		if cs.pending >= s.opts.pipeline && !cs.flushBatch() {
			return false
		}
	}
}

// room drops the rd parsed bytes (and any blank lines after them) off the
// front of `in` and leaves space to read into. It is the one place `in`
// moves, and pump calls it only with every parsed request dispatched and
// the staged run drained, so no argument or value view is live. A partial
// frame that fills the buffer doubles it — the parser has already refused
// any frame whose headers break a limit, so growth follows bytes actually
// received, up to maxRequest — and once what is left fits the configured
// size again the buffer returns to it.
func (cs *connState) room(rd int) {
	rd += blanks(cs.in[rd:])
	home, size, rest := cs.srv.opts.bufSize, cap(cs.in), len(cs.in)-rd
	switch {
	case rest == size:
		size *= 2
	case size > home && rest < home:
		size = home
	}
	if size == cap(cs.in) {
		if rd > 0 {
			cs.in = cs.in[:copy(cs.in, cs.in[rd:])]
		}
		return
	}
	moved := append(getBytes(size), cs.in[rd:]...)
	clear(cs.req.args[:cap(cs.req.args)]) // stale views would pin the old buffer
	putBytes(cs.in)
	cs.in = moved
	cs.charge()
}

// readFailed ends the connection after a parse or read error. The staged
// run's replies are owed first. A protocol error is then reported on the
// wire, and travels on a FIN (half-close plus a bounded drain of whatever
// the client is still sending), not a RST that could destroy it in flight.
// Every other error (EOF, deadline, shed wake-up) goes quiet.
func (cs *connState) readFailed(err error) {
	drained := cs.drain()
	cs.account()
	if drained != nil {
		return
	}
	pe, _ := err.(*protoError)
	if pe != nil {
		cs.out = appendError(cs.out, pe.Error())
	}
	if cs.write() == nil && pe != nil {
		if tc, ok := cs.nc.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		cs.nc.SetReadDeadline(time.Now().Add(time.Second))
		io.Copy(io.Discard, cs.nc)
	}
}

// runLoop is the goroutine-per-conn mode: one blocking loop owning the
// connection. Buffers are acquired only once the conn speaks, so a
// connected-but-silent client costs a goroutine and a registration, not a
// working set.
func (cs *connState) runLoop() {
	var first [1]byte
	n, err := cs.nc.Read(first[:])
	for err == nil && n == 0 {
		n, err = cs.nc.Read(first[:])
	}
	if err != nil {
		return
	}
	if !cs.claim() {
		return // shed while we parked on the first read
	}
	cs.touch()
	cs.acquireBuffers()
	cs.in = append(cs.in, first[0])
	for {
		// Whatever is owed goes out before blocking for more bytes, even
		// behind a half-arrived frame: the client may be waiting on it.
		if !cs.pump() || cs.pending > 0 && !cs.flushBatch() {
			return
		}
		idle := len(cs.in) == 0
		if idle {
			// Between batches: park so the shedder may claim the conn,
			// then re-claim once bytes arrive.
			cs.park()
		}
		n, err := cs.nc.Read(cs.in[len(cs.in):cap(cs.in)])
		if err != nil {
			cs.readFailed(err)
			return
		}
		cs.in = cs.in[:len(cs.in)+n]
		if idle {
			if !cs.claim() {
				return
			}
			cs.touch()
		}
	}
}
