package server

import (
	"errors"
	"fmt"
	"log"
	"net"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/optik-go/optik/store"
)

// options collects construction knobs; see the Option helpers.
type options struct {
	maxConns  int
	pipeline  int
	bufSize   int
	coalesce  int
	idleGrace time.Duration
	shedWater int
	shedSet   bool
}

// Option configures New.
type Option func(*options)

// WithMaxConns caps concurrent connections; past the cap an accepted
// connection is answered with -ERR busy retry and soft-closed (the reply
// travels on a FIN so a well-behaved client can read it, back off and
// redial — server.Client does). 0 (the default) means unlimited.
func WithMaxConns(n int) Option {
	return func(o *options) { o.maxConns = n }
}

// WithIdleGrace sets how long a connection may sit idle before its buffers
// are returned to the tiered pools (default 5s; negative keeps buffers
// resident until close). They come back on the next byte it sends.
func WithIdleGrace(d time.Duration) Option {
	return func(o *options) { o.idleGrace = d }
}

// WithShedWater sets the high-water connection count above which an accept
// sheds idle-longest connections (busy reply + FIN) to make room, keeping
// active clients responsive instead of bouncing newcomers. Defaults to 90%
// of WithMaxConns when that is set; <= 0 disables shedding. Only parked
// connections (no request in flight) are ever shed.
func WithShedWater(n int) Option {
	return func(o *options) { o.shedWater = n; o.shedSet = true }
}

// WithPipeline sets how many pipelined requests a connection executes
// before its replies are force-flushed even though more input is already
// buffered (default 512). Smaller values bound reply latency under an
// aggressive pipeliner; larger values amortize the write syscall further.
func WithPipeline(n int) Option {
	return func(o *options) { o.pipeline = n }
}

// WithBufferSize sets each connection's read buffer size in bytes — also
// the longest line accepted and the reply backlog past which a batch is
// written early (default 16384; at least 512, rounded up to a power of two
// up to 1 MiB).
func WithBufferSize(n int) Option {
	return func(o *options) { o.bufSize = n }
}

// WithCoalesce bounds server-side request coalescing: runs of same-kind
// pipelined commands (GET/MGET, SET/MSET, DEL/MDEL) are staged up to n
// keys and driven through one call of the store's multi-key path
// (default 256), which loops over the point ops. Coalescing is invisible
// on the wire — replies keep exact arrival order and byte-identical
// framing — and never delays a request/response client (the run drains
// whenever the read buffer does). 0 disables staging entirely, restoring
// one-execution-per-request (a multi-key MGET/MSET/MDEL frame is still one
// multi-key call). A run may overshoot n by the final request's keys:
// requests are never split across runs.
func WithCoalesce(n int) Option {
	return func(o *options) { o.coalesce = n }
}

// DefaultCoalesce is the default WithCoalesce run bound (in keys).
const DefaultCoalesce = 256

// Server serves a store over the wire protocol in docs/PROTOCOL.md:
// a hash-routed store.Strings (New) or an ordered store.SortedStrings
// (NewOrdered), which additionally answers SCAN/RANGE/MIN/MAX. Construct,
// then ListenAndServe (blocking) or Start (background); Close shuts the
// listener and every connection down and waits for the handlers to drain.
type Server struct {
	// st is the store every command drives. sorted is the same store's
	// ordered face — non-nil exactly on a NewOrdered server, where it
	// selects the decimal key codec and serves SCAN/RANGE/MIN/MAX.
	st     *store.Strings
	sorted *store.SortedStrings
	opts   options

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]*connState

	closed   atomic.Bool
	active   atomic.Int64
	accepted atomic.Uint64
	rejected atomic.Uint64
	shed     atomic.Uint64
	commands atomic.Uint64
	// getHits and getMisses count GET/MGET keys found and not found — keys,
	// not commands — so a governed store's hit rate reads off STATS.
	getHits, getMisses atomic.Uint64
	// buffersResident tracks the capacity of the read and reply buffers
	// connections hold right now — the STATS RSS proxy.
	buffersResident atomic.Int64
	// Coalescing stats: runs that merged >= 2 pipelined requests into one
	// multi-key store call, and the keys those runs carried.
	coalescedBatches atomic.Uint64
	coalescedKeys    atomic.Uint64
	// connPanics counts connections closed by the containment backstop
	// (contain): a request whose handling panicked.
	connPanics atomic.Uint64
	wg         sync.WaitGroup
}

// New returns a server for st. The server does not own the store: Close
// stops serving but leaves st (and its maintenance scheduler) to the
// caller.
func New(st *store.Strings, opts ...Option) *Server {
	return newServer(st, nil, opts)
}

// NewOrdered returns a server for an ordered store. Keys on the wire must
// be decimal uint64s (the order is the point; hashing would destroy it) —
// any other key draws a per-request error — and the ordered command
// family (SCAN, RANGE, MIN, MAX) is served. Ownership contract as in New.
func NewOrdered(st *store.SortedStrings, opts ...Option) *Server {
	return newServer(&st.Strings, st, opts)
}

func newServer(st *store.Strings, sorted *store.SortedStrings, opts []Option) *Server {
	o := options{pipeline: 512, bufSize: 16384, coalesce: DefaultCoalesce}
	for _, opt := range opts {
		opt(&o)
	}
	if o.pipeline < 1 {
		o.pipeline = 1
	}
	_, o.bufSize, _ = tierFor(o.bufSize) // rounds up to a pool tier; the floor is the smallest
	if o.coalesce < 0 {
		o.coalesce = 0
	}
	if !o.shedSet && o.maxConns > 0 {
		o.shedWater = o.maxConns - o.maxConns/10
	}
	if o.maxConns > 0 && o.shedWater >= o.maxConns {
		o.shedWater = o.maxConns - 1
	}
	if o.idleGrace == 0 {
		o.idleGrace = 5 * time.Second
	}
	return &Server{st: st, sorted: sorted, opts: o, conns: make(map[net.Conn]*connState)}
}

// Listen binds addr ("host:port"; ":0" picks a free port) without serving
// yet, so callers can learn the bound address before the first accept.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	return ln.Addr(), nil
}

// Serve accepts connections on the listener bound by Listen until Close.
// It returns nil after Close, or the accept error that stopped it.
func (s *Server) Serve() error {
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln == nil {
		return errors.New("server: Serve before Listen")
	}
	var acceptDelay time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			// Transient accept failures (fd exhaustion under connection
			// churn, ECONNABORTED) must not take down a server with
			// healthy live connections: back off and retry, the pattern
			// net/http uses.
			if ne, ok := err.(interface{ Temporary() bool }); ok && ne.Temporary() {
				if acceptDelay == 0 {
					acceptDelay = 5 * time.Millisecond
				} else if acceptDelay *= 2; acceptDelay > time.Second {
					acceptDelay = time.Second
				}
				time.Sleep(acceptDelay)
				continue
			}
			return err
		}
		acceptDelay = 0
		s.accepted.Add(1)
		if hw := s.opts.shedWater; hw > 0 {
			if over := int(s.active.Load()) - hw + 1; over > 0 {
				s.shedIdle(over)
			}
		}
		if s.opts.maxConns > 0 && s.active.Load() >= int64(s.opts.maxConns) {
			s.reject(nc)
			continue
		}
		cs := newConnState(s, nc)
		if !s.track(cs, true) {
			// Close won the race between our Accept and the conns-map
			// insert; it will never see this connection, so close it here
			// and stop accepting.
			nc.Close()
			return nil
		}
		s.active.Add(1)
		s.wg.Add(1)
		go s.handle(cs)
	}
}

// reject answers an over-cap accept with the busy reply and a soft close:
// the bytes are written straight to the socket and travel on a FIN, with a short bounded drain of whatever the client
// already pipelined so the kernel does not convert our close into a RST
// that destroys the reply in flight. The drain runs on a short-lived
// goroutine so the accept loop never blocks on a rejected peer.
func (s *Server) reject(nc net.Conn) {
	s.rejected.Add(1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer nc.Close()
		if _, err := nc.Write(busyReply); err != nil {
			return
		}
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		nc.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
		var scratch [256]byte
		for {
			if _, err := nc.Read(scratch[:]); err != nil {
				return
			}
		}
	}()
}

// shedIdle sheds up to n parked connections, idle-longest first, to bring
// the population back under the high-water mark. Only parked conns are
// candidates — the CAS in shedConn guarantees no protocol engine owns the
// conn — so an active client never loses an in-flight request.
func (s *Server) shedIdle(n int) {
	type cand struct {
		cs   *connState
		last int64
	}
	s.mu.Lock()
	cands := make([]cand, 0, len(s.conns))
	for _, cs := range s.conns {
		if cs.state.Load() == connParked {
			cands = append(cands, cand{cs, cs.lastActive.Load()})
		}
	}
	s.mu.Unlock()
	sort.Slice(cands, func(i, j int) bool { return cands[i].last < cands[j].last })
	for _, c := range cands {
		if n <= 0 {
			return
		}
		if s.shedConn(c.cs) {
			n--
		}
	}
}

// shedConn claims one parked connection for shedding. On success the
// shedder owns the socket: it writes the busy reply (no engine can be
// writing concurrently: the CAS out of parked excludes it), a FIN, and
// closes it, which wakes the parked handler; a handler that finds its conn
// shed exits without closing it, so no wake-up — the close or an idle-grace
// deadline — can cut the reply off. The write runs on a short-lived
// goroutine with a write deadline, like reject(): shedConn is called from
// the accept loop, and a shed target whose send buffer is full (dead peer)
// must not stall new accepts — the opposite of what shedding under
// overload is for.
func (s *Server) shedConn(cs *connState) bool {
	if !cs.state.CompareAndSwap(connParked, connShed) {
		return false
	}
	s.shed.Add(1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer cs.nc.Close()
		cs.nc.SetWriteDeadline(time.Now().Add(time.Second))
		cs.nc.Write(busyReply)
		if tc, ok := cs.nc.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
	}()
	return true
}

// ListenAndServe is Listen followed by Serve.
func (s *Server) ListenAndServe(addr string) error {
	if _, err := s.Listen(addr); err != nil {
		return err
	}
	return s.Serve()
}

// Start is Listen followed by Serve on a background goroutine, for
// callers (tests, the loopback bench) that embed the server.
func (s *Server) Start(addr string) (net.Addr, error) {
	a, err := s.Listen(addr)
	if err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.Serve()
	}()
	return a, nil
}

// Close stops accepting, closes every live connection and waits for the
// handlers to finish. Idempotent. The store is not touched.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// track registers or deregisters a connection. Registration reports
// false once Close has run: Close's sweep of the conns map cannot see a
// connection accepted concurrently but not yet inserted, so the insert
// itself must refuse (the closed flag is set before Close takes the
// lock, making this check race-free).
func (s *Server) track(cs *connState, add bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add {
		if s.closed.Load() {
			return false
		}
		s.conns[cs.nc] = cs
	} else {
		delete(s.conns, cs.nc)
	}
	return true
}

// handle is one connection's goroutine. The protocol engine itself — parse
// pipelined requests, stage or execute in arrival order, flush once per
// batch — and its idle-grace buffer release live in connState (conn.go);
// this wrapper owns the teardown.
func (s *Server) handle(cs *connState) {
	defer s.wg.Done()
	defer s.active.Add(-1)
	defer s.track(cs, false)
	defer cs.close()
	defer cs.releaseBuffers()
	defer s.contain()
	cs.runLoop()
}

// contain is the per-connection containment backstop, deferred around each
// connection's protocol engine (handle): a panic while serving one
// connection is logged with its stack, counted on conn_panics, and ends
// that connection — handle tears it down as it would after an error —
// while every other connection and the process carry on. It is the one
// recover in the server. Below it nothing recovers: an invariant the store
// or the structures check still panics, and ends up here. A panic inside
// a structure's critical section would leave its lock held, which no
// backstop can undo; a panic above every lock — a bad request reaching an
// unchecked path of the engine — is what this contains.
func (s *Server) contain() {
	r := recover()
	if r == nil {
		return
	}
	s.connPanics.Add(1)
	log.Printf("server: connection closed after a panic: %v\n%s", r, debug.Stack())
}

// testHookDispatch, when non-nil, runs at the top of dispatch with the
// request's command, above every lock: the containment tests panic from it
// to stand for a request whose handling panics.
var testHookDispatch func(cmd []byte)

// dispatch routes the request just parsed: the three coalescable families
// are staged into the connection's run (draining first on a family switch,
// immediately at the run bound — and always when coalescing is disabled);
// everything else is a barrier that drains the run and then executes.
// Replies append to out in arrival order either way. The request's
// arguments are views into `in`: whatever outlives this call (a staged key,
// a SET value) is hashed or copied here.
func (cs *connState) dispatch() error {
	s, co, args := cs.srv, cs.co, cs.req.args
	if len(args) == 0 {
		return nil
	}
	cmd, rest := args[0], args[1:]
	if h := testHookDispatch; h != nil {
		h(cmd)
	}
	kind, multi := runNone, false
	switch {
	case cmdEq(cmd, "GET"):
		if len(rest) != 1 {
			return cs.barrierArity("get")
		}
		kind = runRead
	case cmdEq(cmd, "MGET"):
		if len(rest) == 0 {
			return cs.barrierArity("mget")
		}
		kind, multi = runRead, true
	case cmdEq(cmd, "SET"):
		if len(rest) != 2 {
			return cs.barrierArity("set")
		}
		kind = runWrite
	case cmdEq(cmd, "MSET"):
		if len(rest) == 0 || len(rest)%2 != 0 {
			return cs.barrierArity("mset")
		}
		kind, multi = runWrite, true
	case cmdEq(cmd, "DEL"):
		if len(rest) != 1 {
			return cs.barrierArity("del")
		}
		kind = runDel
	case cmdEq(cmd, "MDEL"):
		if len(rest) == 0 {
			return cs.barrierArity("mdel")
		}
		kind, multi = runDel, true
	default:
		// Barrier command: the staged run's replies come first.
		if err := cs.drain(); err != nil {
			return err
		}
		return cs.execute(cmd, rest)
	}
	if co.kind != kind && co.kind != runNone {
		if err := cs.drain(); err != nil {
			return err
		}
	}
	n := len(rest)
	staged := false
	if kind == runWrite {
		n = len(rest) / 2
		staged = s.stagePairs(co, rest)
	} else {
		staged = s.stageKeys(co, rest)
	}
	if !staged {
		// A key the codec cannot represent (the ordered server takes
		// decimal uint64s only): soft per-request error, with the staged
		// run's replies drained first so arrival order holds. Nothing of
		// this request was staged (the stage rolls back), so the
		// connection stays fully usable.
		if err := cs.drain(); err != nil {
			return err
		}
		return cs.softError("ERR invalid key")
	}
	co.stage(kind, n, multi)
	if co.keys() >= s.opts.coalesce {
		return cs.drain()
	}
	return nil
}

// execute answers one barrier command (every command outside the three
// coalescable families), appending its reply to out. The ordered family
// spills mid-reply — a 4096-entry page can outgrow any buffer budget — and
// gathers its page in the (drained) coalescer's scratch.
func (cs *connState) execute(cmd []byte, rest [][]byte) error {
	s := cs.srv
	switch {
	case cmdEq(cmd, "SCAN"), cmdEq(cmd, "RANGE"), cmdEq(cmd, "MIN"), cmdEq(cmd, "MAX"):
		if s.sorted == nil {
			return cs.softError("ERR ordered commands require an ordered store (optik-server -ordered)")
		}
		switch {
		case cmdEq(cmd, "SCAN"):
			return cs.executeScan(rest)
		case cmdEq(cmd, "RANGE"):
			return cs.executeRange(rest)
		case cmdEq(cmd, "MIN"):
			if len(rest) != 0 {
				return cs.arity("min")
			}
			k, v, ok := s.sorted.Min()
			cs.out = executeEndpoint(cs.out, k, v, ok)
		default:
			if len(rest) != 0 {
				return cs.arity("max")
			}
			k, v, ok := s.sorted.Max()
			cs.out = executeEndpoint(cs.out, k, v, ok)
		}
	case cmdEq(cmd, "EXPIRE"), cmdEq(cmd, "SETEX"), cmdEq(cmd, "TTL"), cmdEq(cmd, "PERSIST"):
		return cs.executeTTL(cmd, rest)
	case cmdEq(cmd, "LEN"):
		if len(rest) != 0 {
			return cs.arity("len")
		}
		cs.out = appendInt(cs.out, int64(s.st.Len()))
	case cmdEq(cmd, "STATS"):
		if len(rest) != 0 {
			return cs.arity("stats")
		}
		cs.out = appendBulk(cs.out, s.statsText())
	case cmdEq(cmd, "QUIESCE"):
		if len(rest) != 0 {
			return cs.arity("quiesce")
		}
		s.st.Quiesce()
		cs.out = appendStatus(cs.out, "OK")
	case cmdEq(cmd, "PING"):
		cs.out = appendStatus(cs.out, "PONG")
	case cmdEq(cmd, "QUIT"):
		cs.out = appendStatus(cs.out, "OK")
		return errQuit
	default:
		return cs.softError(fmt.Sprintf("ERR unknown command %q", cmd))
	}
	return nil
}

// executeTTL answers the expiry family. All four are barriers (they reach
// here through dispatch's default case), so they order after any staged
// coalesced run — a pipelined SET k / EXPIRE k pair applies in arrival
// order. Bad seconds (non-numeric, overflow, and SETEX's non-positive)
// are soft errors: the frame was well-formed, the connection stays up.
func (cs *connState) executeTTL(cmd []byte, rest [][]byte) error {
	s := cs.srv
	switch {
	case cmdEq(cmd, "EXPIRE"):
		if len(rest) != 2 {
			return cs.arity("expire")
		}
		k, ok := s.key(rest[0])
		if !ok {
			return cs.softError("ERR invalid key")
		}
		secs, ok := parseInt(rest[1])
		if !ok {
			return cs.softError("ERR value is not an integer or out of range")
		}
		cs.out = appendInt(cs.out, b2i(s.st.ExpireHashed(k, secs)))
	case cmdEq(cmd, "SETEX"):
		if len(rest) != 3 {
			return cs.arity("setex")
		}
		k, ok := s.key(rest[0])
		if !ok {
			return cs.softError("ERR invalid key")
		}
		secs, ok := parseInt(rest[1])
		if !ok {
			return cs.softError("ERR value is not an integer or out of range")
		}
		if secs <= 0 {
			return cs.softError("ERR invalid expire time in 'setex' command")
		}
		cs.out = appendInt(cs.out, b2i(s.st.SetEXHashed(k, view(rest[2]), secs)))
	case cmdEq(cmd, "TTL"):
		if len(rest) != 1 {
			return cs.arity("ttl")
		}
		k, ok := s.key(rest[0])
		if !ok {
			return cs.softError("ERR invalid key")
		}
		cs.out = appendInt(cs.out, s.st.TTLHashed(k))
	default: // PERSIST
		if len(rest) != 1 {
			return cs.arity("persist")
		}
		k, ok := s.key(rest[0])
		if !ok {
			return cs.softError("ERR invalid key")
		}
		cs.out = appendInt(cs.out, b2i(s.st.PersistHashed(k)))
	}
	return nil
}

// softError answers a well-formed frame the server will not execute; the
// connection stays usable.
func (cs *connState) softError(msg string) error {
	cs.out = appendError(cs.out, msg)
	return nil
}

// arity reports a wrong-argument-count error for cmd.
func (cs *connState) arity(cmd string) error {
	return cs.softError("ERR wrong number of arguments for '" + cmd + "'")
}

// barrierArity drains the staged run — its replies precede the error in
// arrival order — then reports the wrong-argument-count error for cmd.
func (cs *connState) barrierArity(cmd string) error {
	if err := cs.drain(); err != nil {
		return err
	}
	return cs.arity(cmd)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// cmdEq compares a request's command byte-slice against an upper-case
// name, case-insensitively, without allocating.
func cmdEq(b []byte, upper string) bool {
	if len(b) != len(upper) {
		return false
	}
	for i := 0; i < len(upper); i++ {
		c := b[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != upper[i] {
			return false
		}
	}
	return true
}

// statsText renders the STATS reply: the store-side lines, then the
// server's connection and command counters. See docs/PROTOCOL.md for
// the field list and stability contract.
func (s *Server) statsText() string {
	return s.statsPrefix() + fmt.Sprintf(
		"conns:%d\naccepted:%d\ncommands:%d\n"+
			"coalesced_batches:%d\ncoalesced_keys:%d\n"+
			"conns_open:%d\nconns_rejected:%d\nconns_shed:%d\n"+
			"buffers_resident:%d\n"+
			"get_hits:%d\nget_misses:%d\nconn_panics:%d\n"+
			"writes_elided:%d\nevicted_warm:%d\n",
		s.active.Load(), s.accepted.Load(), s.commands.Load(),
		s.coalescedBatches.Load(), s.coalescedKeys.Load(),
		s.active.Load(), s.rejected.Load(), s.shed.Load(),
		s.buffersResident.Load(),
		s.getHits.Load(), s.getMisses.Load(), s.connPanics.Load(),
		s.st.WritesElided(), s.st.EvictedWarm())
}
