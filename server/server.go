package server

import (
	"errors"
	"fmt"
	"log"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/optik-go/optik/store"
)

// options collects construction knobs; see the Option helpers.
type options struct {
	maxConns  int
	bufSize   int
	idleGrace time.Duration
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

// withBufferSize sets each connection's read buffer size in bytes — also
// the longest line accepted and the reply backlog past which a batch is
// written early (default 16384; at least 512, rounded up to a power of two
// up to 1 MiB). Only tests set it, to drive frames past a small buffer.
func withBufferSize(n int) Option {
	return func(o *options) { o.bufSize = n }
}

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
	commands atomic.Uint64
	// getHits and getMisses count GET/MGET keys found and not found — keys,
	// not commands — so a governed store's hit rate reads off STATS.
	getHits, getMisses atomic.Uint64
	// buffersResident tracks the capacity of the read and reply buffers
	// connections hold right now — the STATS RSS proxy.
	buffersResident atomic.Int64
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
	o := options{bufSize: 16384}
	for _, opt := range opts {
		opt(&o)
	}
	_, o.bufSize, _ = tierFor(o.bufSize) // rounds up to a pool tier; the floor is the smallest
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

// reject answers an over-cap accept with the busy reply, written straight
// to the socket, and a soft close (softClose, with a short drain of
// whatever the client already pipelined). It runs on a short-lived
// goroutine so the accept loop never blocks on a rejected peer.
func (s *Server) reject(nc net.Conn) {
	s.rejected.Add(1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer nc.Close()
		if _, err := nc.Write(busyReply); err == nil {
			softClose(nc, 250*time.Millisecond)
		}
	}()
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
// pipelined requests, execute them in arrival order, flush once per
// batch — and its idle-grace buffer release live in connState (conn.go);
// this wrapper owns the teardown.
func (s *Server) handle(cs *connState) {
	defer s.wg.Done()
	defer s.active.Add(-1)
	defer s.track(cs, false)
	defer cs.nc.Close()
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

// dispatch executes the request just parsed, appending its reply to out,
// so requests execute and answer in arrival order. Its arguments are views
// into `in`, valid until room next moves it; the store copies a SET's
// value before it returns and keeps nothing else of them, so nothing of a
// request outlives its dispatch. A multi-key frame is hashed whole into
// the connection's scratch before the store sees a key of it, so a frame
// with one key the codec cannot represent is refused whole.
func (cs *connState) dispatch() error {
	s, args := cs.srv, cs.req.args
	if len(args) == 0 {
		return nil
	}
	cmd, rest := args[0], args[1:]
	if h := testHookDispatch; h != nil {
		h(cmd)
	}
	switch {
	case cmdEq(cmd, "GET"):
		if len(rest) != 1 {
			return cs.arity("get")
		}
		k, ok := s.key(rest[0])
		if !ok {
			return cs.softError("ERR invalid key")
		}
		cs.appendValue(s.st.GetHashed(k))
	case cmdEq(cmd, "MGET"):
		if len(rest) == 0 {
			return cs.arity("mget")
		}
		keys, vals, found := cs.scratch(len(rest))
		if !s.hashKeys(keys, rest, 1) {
			return cs.softError("ERR invalid key")
		}
		s.st.MGetHashed(keys, vals, found)
		cs.out = appendArrayHeader(cs.out, len(keys))
		for i := range keys {
			cs.appendValue(vals[i], found[i])
			if err := cs.spill(); err != nil {
				return err
			}
		}
		clear(vals) // the scratch pins no values between requests
	case cmdEq(cmd, "SET"):
		if len(rest) != 2 {
			return cs.arity("set")
		}
		k, ok := s.key(rest[0])
		if !ok {
			return cs.softError("ERR invalid key")
		}
		cs.out = appendInt(cs.out, b2i(s.st.SetHashed(k, view(rest[1]))))
	case cmdEq(cmd, "MSET"):
		if len(rest) == 0 || len(rest)%2 != 0 {
			return cs.arity("mset")
		}
		keys, vals, replaced := cs.scratch(len(rest) / 2)
		if !s.hashKeys(keys, rest, 2) {
			return cs.softError("ERR invalid key")
		}
		for i := range vals {
			vals[i] = view(rest[2*i+1])
		}
		inserted := s.st.MSetHashed(keys, vals, replaced)
		clear(vals)
		cs.out = appendInt(cs.out, int64(inserted))
	case cmdEq(cmd, "DEL"):
		if len(rest) != 1 {
			return cs.arity("del")
		}
		k, ok := s.key(rest[0])
		if !ok {
			return cs.softError("ERR invalid key")
		}
		cs.out = appendInt(cs.out, b2i(s.st.DelHashed(k)))
	case cmdEq(cmd, "MDEL"):
		if len(rest) == 0 {
			return cs.arity("mdel")
		}
		keys, _, found := cs.scratch(len(rest))
		if !s.hashKeys(keys, rest, 1) {
			return cs.softError("ERR invalid key")
		}
		cs.out = appendInt(cs.out, int64(s.st.MDelHashed(keys, found)))
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

// appendValue frames one GET or MGET result and tallies it as a hit or a
// miss.
func (cs *connState) appendValue(v string, found bool) {
	if found {
		cs.hits++
		cs.out = appendBulk(cs.out, v)
	} else {
		cs.misses++
		cs.out = appendNilBulk(cs.out)
	}
}

// hashKeys maps args[0], args[stride], … through the key codec into
// keys, one per slot; false when the codec cannot represent one of them.
func (s *Server) hashKeys(keys []uint64, args [][]byte, stride int) bool {
	for i := range keys {
		k, ok := s.key(args[i*stride])
		if !ok {
			return false
		}
		keys[i] = k
	}
	return true
}

// view is a value argument as a string over the parser's bytes, with no
// copy. It is valid only until the read buffer next moves; the store's
// write paths copy what they are given and retain nothing, so a view may
// be handed to them and must go nowhere else.
func view(arg []byte) string {
	return unsafe.String(unsafe.SliceData(arg), len(arg))
}

// executeTTL answers the expiry family. Bad seconds (non-numeric,
// overflow, and SETEX's non-positive) are soft errors: the frame was
// well-formed, the connection stays up.
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
			"conns_open:%d\nconns_rejected:%d\n"+
			"buffers_resident:%d\n"+
			"get_hits:%d\nget_misses:%d\nconn_panics:%d\n"+
			"writes_elided:%d\nevicted_warm:%d\nevicted_new:%d\n",
		s.active.Load(), s.accepted.Load(), s.commands.Load(),
		s.active.Load(), s.rejected.Load(),
		s.buffersResident.Load(),
		s.getHits.Load(), s.getMisses.Load(), s.connPanics.Load(),
		s.st.WritesElided(), s.st.EvictedWarm(), s.st.EvictedNew())
}
