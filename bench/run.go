package main

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/optik-go/optik/bench/gen"
	"github.com/optik-go/optik/server"
)

// env is one set-up system: the in-process server, the load connections
// with their rings installed, and a control connection for QUIESCE and
// STATS.
type env struct {
	w          *workload
	srv        *server.Server
	closeStore func()
	conns      []net.Conn
	clients    []*gen.Client
	ctl        *control
	// preloaded and userBytes are the keys set-up stored and their
	// key-plus-value bytes.
	preloaded, userBytes int
}

// setup builds the system the way a run finds it: construct, listen, dial,
// preload over the wire, encode the request rings from the seed, QUIESCE.
// All of it is what setup_s times.
//
// The collector is off while this runs and then runs once, in full, before
// setup returns. Left on, the last of the cycles that chase the growing
// heap either fits into the preload or does not, and setup_s flips between
// two values a quarter apart; this way every set-up pays for exactly one
// cycle over the same live heap.
func setup(w *workload, seed uint64) (e *env, err error) {
	e = &env{w: w}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	e.srv, e.closeStore = w.newServer()
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	addr, err := e.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	dial := func() (net.Conn, error) {
		nc, err := net.Dial("tcp", addr.String())
		if err == nil {
			e.conns = append(e.conns, nc)
		}
		return nc, err
	}
	for range w.conns {
		nc, err := dial()
		if err != nil {
			return nil, fmt.Errorf("dial: %w", err)
		}
		e.clients = append(e.clients, gen.NewClient(&w.Workload, nc))
	}
	nc, err := dial()
	if err != nil {
		return nil, fmt.Errorf("dial control: %w", err)
	}
	e.ctl = &control{nc: nc, r: bufio.NewReader(nc)}

	// Each connection preloads its slice of the population, then encodes
	// its own ring.
	type loaded struct {
		keys, bytes int
		err         error
	}
	res := make([]loaded, w.conns)
	var wg sync.WaitGroup
	for i, c := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			from := uint32(uint64(w.Keys) * uint64(i) / uint64(w.conns))
			to := uint32(uint64(w.Keys) * uint64(i+1) / uint64(w.conns))
			r := &res[i]
			r.keys, r.bytes, r.err = c.Preload(from, to)
			c.SetRing(gen.BuildRing(&w.Workload, seed, i, w.ringLen()))
		}()
	}
	wg.Wait()
	for _, r := range res {
		if r.err != nil {
			return nil, fmt.Errorf("preload: %w", r.err)
		}
		e.preloaded += r.keys
		e.userBytes += r.bytes
	}
	if err := e.ctl.quiesce(); err != nil {
		return nil, err
	}
	runtime.GC()
	return e, nil
}

// close tears the system down and waits for the server's goroutines.
func (e *env) close() {
	for _, nc := range e.conns {
		nc.Close()
	}
	e.srv.Close()
	e.closeStore()
}

// control is a plain request/response connection for admin commands.
type control struct {
	nc net.Conn
	r  *bufio.Reader
}

func (c *control) quiesce() error {
	if _, err := io.WriteString(c.nc, "QUIESCE\r\n"); err != nil {
		return fmt.Errorf("QUIESCE: %w", err)
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return fmt.Errorf("QUIESCE: %w", err)
	}
	if line != "+OK\r\n" {
		return fmt.Errorf("QUIESCE answered %q", line)
	}
	return nil
}

// stats fetches STATS as a map of its name:value lines.
func (c *control) stats() (map[string]int64, error) {
	if _, err := io.WriteString(c.nc, "STATS\r\n"); err != nil {
		return nil, fmt.Errorf("STATS: %w", err)
	}
	head, err := c.r.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("STATS: %w", err)
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(head, "$"), "\r\n"))
	if err != nil || !strings.HasPrefix(head, "$") || n < 0 {
		return nil, fmt.Errorf("STATS answered %q", head)
	}
	body := make([]byte, n+2)
	if _, err := io.ReadFull(c.r, body); err != nil {
		return nil, fmt.Errorf("STATS: %w", err)
	}
	m := make(map[string]int64)
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		name, val, ok := strings.Cut(line, ":")
		v, err := strconv.ParseInt(val, 10, 64)
		if !ok || err != nil {
			return nil, fmt.Errorf("STATS line %q is not name:number", line)
		}
		m[name] = v
	}
	return m, nil
}

// A client reads the driver's slot when it starts a request unit and
// accounts the whole unit to it. Slot 0 collects what is not measured (the
// warm-up and the gaps between windows); a window takes one slot per slice.
const (
	slotDiscard int32 = 0
	slotStop    int32 = -1
)

// driver runs the clients and steps them through the slots.
type driver struct {
	e    *env
	slot atomic.Int32
	// tracedFrom is the first slot whose units record their spans.
	tracedFrom int32
	stats      [][]gen.Stats // [client][slot]
	errs       []error
	failed     chan struct{}
	wg         sync.WaitGroup
}

// errAborted is returned by a window that a failing client cut short.
var errAborted = errors.New("a client failed")

// startDriver starts the clients in the discard slot. slots is the number
// of slices all windows of the run take together.
func startDriver(e *env, slots int, tracedFrom int32, deadline time.Duration) *driver {
	d := &driver{e: e, tracedFrom: tracedFrom, failed: make(chan struct{})}
	d.stats = make([][]gen.Stats, len(e.clients))
	d.errs = make([]error, len(e.clients))
	var once sync.Once
	for i, c := range e.clients {
		d.stats[i] = make([]gen.Stats, 1+slots)
		// One deadline for the whole run instead of one per read: a server
		// that stops answering surfaces as a read error and the replies it
		// owes are counted as failed.
		e.conns[i].SetDeadline(time.Now().Add(deadline))
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			for {
				s := d.slot.Load()
				if s == slotStop {
					return
				}
				if err := c.Unit(&d.stats[i][s], s >= d.tracedFrom); err != nil {
					d.errs[i] = err
					once.Do(func() { close(d.failed) })
					return
				}
			}
		}()
	}
	return d
}

// stop ends the run and waits for the clients; only then may their stats
// be read. It returns the first client error.
func (d *driver) stop() error {
	d.slot.Store(slotStop)
	d.wg.Wait()
	return errors.Join(d.errs...)
}

// sleep waits for dur unless a client fails first.
func (d *driver) sleep(dur time.Duration) error {
	select {
	case <-time.After(dur):
		return nil
	case <-d.failed:
		return errAborted
	}
}

// window is what the controller observed while a measured window ran.
type window struct {
	// first is the slot of the window's first slice; slices holds how long
	// the controller kept each slice's slot current.
	first  int32
	slices []time.Duration
	// rssPeak is the largest of the resident-set samples, in bytes.
	rssPeak uint64
	// bytesUsedPeak is the largest of the STATS bytes_used samples of a
	// traced window.
	bytesUsedPeak int64
}

// window steps the clients through n equal slices that take dur together,
// starting at slot first, and meanwhile samples, at 10 Hz (faster when a
// slice is shorter than that), the resident set and, with pollStats, the
// store's bytes_used. It leaves the clients in the discard slot.
func (d *driver) window(first int32, n int, dur time.Duration, pollStats bool) (window, error) {
	win := window{first: first}
	tick := time.NewTicker(min(100*time.Millisecond, dur/time.Duration(n)))
	defer tick.Stop()
	start := time.Now()
	d.slot.Store(first)
	last := start
	for k := 1; k <= n; {
		select {
		case <-d.failed:
			return win, errAborted
		case <-tick.C:
		}
		win.rssPeak = max(win.rssPeak, residentBytes())
		if pollStats {
			st, err := d.e.ctl.stats()
			if err != nil {
				return win, err
			}
			win.bytesUsedPeak = max(win.bytesUsedPeak, st["bytes_used"])
		}
		now := time.Now()
		if now.Sub(start) < dur*time.Duration(k)/time.Duration(n) {
			continue
		}
		if k < n {
			d.slot.Store(first + int32(k))
		} else {
			d.slot.Store(slotDiscard)
		}
		win.slices = append(win.slices, now.Sub(last))
		last = now
		k++
	}
	return win, nil
}

// elapsed is the length of the whole window.
func (w *window) elapsed() time.Duration {
	var sum time.Duration
	for _, d := range w.slices {
		sum += d
	}
	return sum
}

// throughputKops is a throughput in thousands of verified commands per second.
func throughputKops(st *gen.Stats, dur time.Duration) float64 {
	return float64(st.Ops-st.Failed) / dur.Seconds() / 1e3
}

// all folds together everything the clients did, measured or not. Call it,
// like measured, only after stop.
func (d *driver) all() *gen.Stats {
	var sum gen.Stats
	for i := range d.stats {
		for k := range d.stats[i] {
			sum.Add(&d.stats[i][k])
		}
	}
	return &sum
}

// measured is a window after the run: every client's stats folded together,
// slice by slice and in total.
type measured struct {
	slices []gen.Stats
	durs   []time.Duration
	total  gen.Stats
	dur    time.Duration
}

func (d *driver) measured(win *window) *measured {
	m := &measured{slices: make([]gen.Stats, len(win.slices)), durs: win.slices, dur: win.elapsed()}
	for k := range m.slices {
		for i := range d.stats {
			m.slices[k].Add(&d.stats[i][win.first+int32(k)])
		}
		m.total.Add(&m.slices[k])
	}
	return m
}

// rates is the throughput of every slice.
func (m *measured) rates() []float64 {
	out := make([]float64, len(m.slices))
	for k := range m.slices {
		out[k] = throughputKops(&m.slices[k], m.durs[k])
	}
	return out
}

// quietQuarter folds together the quarter of the slices with the highest
// throughput. On a shared host a neighbour slows the whole program for
// seconds to minutes at a time, by up to a third; interference only ever
// subtracts, so the fastest slices are the ones that saw the least of it,
// and what they measured repeats from run to run where the whole window's
// mean does not. Throughput and latency are both taken from these slices.
func (m *measured) quietQuarter() (st *gen.Stats, dur time.Duration) {
	rates := m.rates()
	order := make([]int, len(rates))
	for k := range order {
		order[k] = k
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(rates[b], rates[a]) })
	st = new(gen.Stats)
	for _, k := range order[:max(1, len(order)/4)] {
		st.Add(&m.slices[k])
		dur += m.durs[k]
	}
	return st, dur
}

// spreadPct is (max - min) / mean of the slice rates, in percent.
func spreadPct(rates []float64) float64 {
	if len(rates) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rates {
		sum += r
	}
	return 100 * (slices.Max(rates) - slices.Min(rates)) / (sum / float64(len(rates)))
}

// residentBytes reads the process's resident set from /proc/self/statm.
func residentBytes() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseUint(f[1], 10, 64)
	return pages * uint64(os.Getpagesize())
}
