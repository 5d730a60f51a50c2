//go:build linux

// Shared-poller conn mode: one epoll instance owns every connection's
// readiness, a small worker pool drives the shared connState protocol
// engine over whichever connections turned readable, and an idle sweep
// returns buffers to the tiered pools. An idle connection costs an epoll
// registration plus a pollConn/connState pair — no goroutine, no stack,
// and (after the grace) no buffers — which is what lets one process hold
// tens of thousands of mostly-idle clients.
//
// Concurrency scheme: connections are registered level-triggered with
// EPOLLONESHOT, so a readable conn is dispatched to exactly one worker and
// stays disarmed until that worker re-arms it after processing — two
// workers never own one conn. Each pollConn also carries a processing
// mutex (procMu): the idle sweep and the shedder take it (TryLock / Lock)
// so buffer release and teardown never overlap a worker mid-batch. The
// parked/busy/shed state word is the same protocol the goroutine mode
// uses, so the load shedder in server.go is mode-agnostic.
//
// Reads go through rawReader: a nonblocking syscall.Read under
// syscall.RawConn, so no worker — and not the dispatcher when it helps —
// ever blocks on a socket read. A half-arrived frame, however large, parks
// in the conn's `in` buffer (which grows to hold it; conn.go) and the
// worker moves on; a peer that stalls mid-frame costs its buffer, never a
// worker. The one bounded exception is the protocol-error teardown, which
// drains the peer for at most a second. Replies use blocking nc.Write —
// an already backpressured path — under a deadline (pollerWriteTimeout): a
// zero-window or dead peer bounds the worker — or the dispatcher's
// help-drain — for that long, not for the TCP stack's own timeout of
// minutes.

package server

import (
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const pollerSupported = true

// errWouldBlock is rawReader's EAGAIN: no bytes now, try again on the next
// readiness event.
var errWouldBlock = errors.New("server: read would block")

// rawReader reads straight from the fd without ever waiting: EAGAIN
// surfaces as errWouldBlock.
type rawReader struct {
	rc syscall.RawConn
}

func (rr *rawReader) Read(p []byte) (int, error) {
	var n int
	var rerr error
	cerr := rr.rc.Read(func(fd uintptr) bool {
		for {
			n, rerr = syscall.Read(int(fd), p)
			if rerr == syscall.EINTR {
				continue
			}
			if rerr == syscall.EAGAIN {
				n, rerr = 0, errWouldBlock
			}
			return true
		}
	})
	switch {
	case cerr != nil:
		return 0, cerr // conn closed under us
	case rerr != nil:
		return 0, rerr
	case n == 0:
		return 0, io.EOF
	}
	return n, nil
}

// pollConn is one poller-registered connection.
type pollConn struct {
	cs  *connState
	p   *poller
	fd  int
	raw rawReader

	// procMu serializes the three parties that may touch the engine state:
	// the worker processing a readiness batch, the idle sweep releasing
	// buffers, and the shedder/teardown. closed is guarded by it.
	procMu sync.Mutex
	closed bool
}

type poller struct {
	s     *Server
	epfd  int
	wakeR int // pipe: stop() writes a byte, waitLoop exits
	wakeW int

	mu    sync.Mutex
	conns map[int32]*pollConn

	ready   chan *pollConn
	stopped atomic.Bool
}

func newPoller(s *Server) (*poller, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, err
	}
	var pfds [2]int
	if err := syscall.Pipe2(pfds[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		syscall.Close(epfd)
		return nil, err
	}
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(pfds[0])}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, pfds[0], &ev); err != nil {
		syscall.Close(epfd)
		syscall.Close(pfds[0])
		syscall.Close(pfds[1])
		return nil, err
	}
	return &poller{
		s:     s,
		epfd:  epfd,
		wakeR: pfds[0],
		wakeW: pfds[1],
		conns: make(map[int32]*pollConn),
		ready: make(chan *pollConn, 256),
	}, nil
}

// start launches the wait loop and the worker pool, all on the server's
// WaitGroup so Close drains them.
func (p *poller) start() {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	p.s.wg.Add(1 + workers)
	go p.waitLoop()
	for i := 0; i < workers; i++ {
		go p.worker()
	}
}

// stop wakes the wait loop so it exits and closes the ready channel,
// draining the workers. Safe to call more than once.
func (p *poller) stop() {
	if p.stopped.Swap(true) {
		return
	}
	syscall.Write(p.wakeW, []byte{0})
}

// destroy closes the epoll and wake fds; call only after the wait loop and
// workers have exited (Server.Close waits on the WaitGroup first).
func (p *poller) destroy() {
	syscall.Close(p.epfd)
	syscall.Close(p.wakeR)
	syscall.Close(p.wakeW)
}

// register adds an accepted connection to the epoll set. The connection is
// parked with no buffers until its first readable byte.
func (p *poller) register(cs *connState) error {
	tc, ok := cs.nc.(*net.TCPConn)
	if !ok {
		return errors.New("server: poller needs a TCP conn")
	}
	rc, err := tc.SyscallConn()
	if err != nil {
		return err
	}
	fd := -1
	if err := rc.Control(func(u uintptr) { fd = int(u) }); err != nil {
		return err
	}
	pc := &pollConn{cs: cs, p: p, fd: fd}
	pc.raw.rc = rc
	cs.poll = pc
	p.mu.Lock()
	p.conns[int32(fd)] = pc
	p.mu.Unlock()
	ev := syscall.EpollEvent{
		Events: syscall.EPOLLIN | syscall.EPOLLRDHUP | uint32(syscall.EPOLLONESHOT),
		Fd:     int32(fd),
	}
	if err := syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_ADD, fd, &ev); err != nil {
		p.mu.Lock()
		delete(p.conns, int32(fd))
		p.mu.Unlock()
		cs.poll = nil // the fallback goroutine writes without the poller's deadline
		return err
	}
	return nil
}

// sweepTick converts the idle grace into the EpollWait timeout that paces
// the idle sweep.
func sweepTick(grace time.Duration) int {
	if grace <= 0 {
		return 500 // no sweeping; wake occasionally anyway
	}
	ms := int(grace / (2 * time.Millisecond))
	if ms < 5 {
		ms = 5
	}
	if ms > 500 {
		ms = 500
	}
	return ms
}

// waitLoop is the dispatcher: EpollWait, hand ready conns to the workers,
// and pace the idle sweep off the wait timeout.
func (p *poller) waitLoop() {
	defer p.s.wg.Done()
	defer close(p.ready)
	events := make([]syscall.EpollEvent, 128)
	tick := sweepTick(p.s.opts.idleGrace)
	lastSweep := time.Now()
	for {
		// Poll without a timeout first: under load there is nearly always a
		// ready conn, and a zero-timeout EpollWait returns without blocking
		// the thread — a blocking syscall would pin this goroutine's P
		// until sysmon retakes it (~tens of µs), stalling every other
		// goroutine sharing it. Only a genuinely idle poller pays the
		// blocking wait, when there is nothing to stall.
		n, err := syscall.EpollWait(p.epfd, events, 0)
		if err == nil && n == 0 {
			runtime.Gosched()
			n, err = syscall.EpollWait(p.epfd, events, tick)
		}
		if err == syscall.EINTR {
			continue
		}
		if err != nil || p.stopped.Load() {
			return
		}
		for i := 0; i < n; i++ {
			fd := events[i].Fd
			if int(fd) == p.wakeR {
				if p.stopped.Load() {
					return
				}
				var b [8]byte
				syscall.Read(p.wakeR, b[:])
				continue
			}
			p.mu.Lock()
			pc := p.conns[fd]
			p.mu.Unlock()
			if pc != nil {
				select {
				case p.ready <- pc:
				default:
					// Queue full: every worker is busy (or wedged on a slow
					// peer). Serve inline rather than park the dispatcher on
					// the channel behind them — inline work is bounded by
					// pollerWriteTimeout, a blocked send is bounded by
					// nothing.
					pc.serve()
				}
			}
		}
		// Help the workers before blocking again: drain whatever is still
		// queued right now. With spare cores the workers have already taken
		// most of it in parallel; on a single-P runtime this keeps the
		// processing inline instead of paying a goroutine wake-up per conn
		// per readiness cycle (which roughly halves throughput there). The
		// queue is only drained, never waited on, so a slow connection in
		// this loop delays dispatch by at most one conn's batch — and every
		// reply write in that batch is deadline-bounded (connState.write), so
		// "one batch" is time-bounded too, not hostage to a dead peer.
	help:
		for {
			select {
			case pc := <-p.ready:
				pc.serve()
			default:
				break help
			}
		}
		if grace := p.s.opts.idleGrace; grace > 0 && time.Since(lastSweep) >= time.Duration(tick)*time.Millisecond {
			p.sweepIdle(grace)
			lastSweep = time.Now()
		}
	}
}

// sweepIdle returns the buffers of connections idle past the grace to the
// tiered pools. The atomics pre-filter keeps the scan cheap (no lock per
// conn unless it is actually parked, resident and overdue); the release
// itself happens under procMu with the engine provably quiescent.
func (p *poller) sweepIdle(grace time.Duration) {
	cutoff := time.Now().Add(-grace).UnixNano()
	p.mu.Lock()
	pcs := make([]*pollConn, 0, len(p.conns))
	for _, pc := range p.conns {
		pcs = append(pcs, pc)
	}
	p.mu.Unlock()
	for _, pc := range pcs {
		cs := pc.cs
		if !cs.resident.Load() || cs.state.Load() != connParked || cs.lastActive.Load() > cutoff {
			continue
		}
		if !pc.procMu.TryLock() {
			continue
		}
		if !pc.closed && cs.state.Load() == connParked && cs.idleReleasable() {
			cs.releaseBuffers()
		}
		pc.procMu.Unlock()
	}
}

func (p *poller) worker() {
	defer p.s.wg.Done()
	for pc := range p.ready {
		pc.serve()
	}
}

// rearm re-enables readiness delivery after a oneshot firing.
func (p *poller) rearm(fd int) error {
	ev := syscall.EpollEvent{
		Events: syscall.EPOLLIN | syscall.EPOLLRDHUP | uint32(syscall.EPOLLONESHOT),
		Fd:     int32(fd),
	}
	return syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_MOD, fd, &ev)
}

// serve handles one readiness firing: claim the conn from parked, process
// until the socket runs dry, park and re-arm.
func (pc *pollConn) serve() {
	pc.procMu.Lock()
	defer pc.procMu.Unlock()
	if pc.closed {
		return
	}
	cs := pc.cs
	if !cs.claim() {
		// The shedder claimed the conn between the event and us; its
		// teardown ran (or runs as soon as we unlock).
		return
	}
	cs.touch()
	if pc.process() {
		pc.teardownLocked()
		return
	}
	cs.park()
	if pc.p.rearm(pc.fd) != nil {
		// MOD on a dead fd: the conn is gone (torn down concurrently or
		// closed by Server.Close); make sure the bookkeeping agrees.
		if cs.claim() {
			pc.teardownLocked()
		}
	}
}

// process drives the shared engine over everything the socket has to give
// right now. It returns true when the connection is finished (EOF, error,
// QUIT, protocol teardown, or a panic the containment backstop caught)
// and false when the socket is merely dry and the conn should be re-armed;
// a half-arrived frame waits in `in`.
func (pc *pollConn) process() (done bool) {
	cs := pc.cs
	defer cs.srv.contain(&done)
	if cs.in == nil {
		cs.acquireBuffers()
	}
	for {
		n, err := pc.raw.Read(cs.in[len(cs.in):cap(cs.in)])
		if err == nil {
			cs.in = cs.in[:len(cs.in)+n]
			full := len(cs.in) == cap(cs.in)
			if !cs.pump() {
				return true
			}
			if full {
				continue // the read filled the buffer whole; there may be more
			}
		} else if err != errWouldBlock {
			// EOF or a hard error, with every whole frame before it already
			// consumed — same teardown the goroutine mode runs.
			cs.readFailed(err)
			return true
		}
		// Socket dry — either the read said so (EAGAIN) or it came up
		// short, which on a stream socket means the receive queue was
		// emptied at that moment. Bytes arriving after that instant re-fire
		// the level-triggered event once we re-arm, so skipping the
		// EAGAIN-confirming read loses no wake-up and saves a syscall per
		// readiness cycle. The client is owed its replies before we wait.
		return cs.pending > 0 && !cs.flushBatch()
	}
}

// shed implements connPoller for the mode-agnostic shedder in server.go:
// the state is already connShed (so no worker owns the engine — serve's
// claim fails), write the busy reply ahead of a FIN and tear down.
func (pc *pollConn) shed() {
	pc.procMu.Lock()
	defer pc.procMu.Unlock()
	if pc.closed {
		return
	}
	// shed runs on the accept loop: bound the courtesy write so a shed
	// target with a full send buffer cannot stall new accepts.
	pc.cs.nc.SetWriteDeadline(time.Now().Add(time.Second))
	pc.cs.nc.Write(busyReply)
	if tc, ok := pc.cs.nc.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	pc.teardownLocked()
}

// teardownLocked unregisters and closes the connection; procMu held.
// Idempotent via pc.closed.
func (pc *pollConn) teardownLocked() {
	if pc.closed {
		return
	}
	pc.closed = true
	p := pc.p
	syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_DEL, pc.fd, nil)
	p.mu.Lock()
	delete(p.conns, int32(pc.fd))
	p.mu.Unlock()
	pc.cs.releaseBuffers()
	p.s.track(pc.cs, false)
	p.s.active.Add(-1)
	pc.cs.nc.Close()
}
