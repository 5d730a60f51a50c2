package gen

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"
)

// Ring is one connection's requests, encoded once during set-up: the ops
// in stream order and their wire bytes back to back. The measured loop
// only slices it, so generating load costs the client no encoding and no
// allocation, and the ring wraps when the run outlasts it.
type Ring struct {
	Ops []Op
	buf []byte
	end []uint32 // end[i] is the offset just past op i's bytes
}

// BuildRing encodes the first nops ops of connection conn's stream.
func BuildRing(w *Workload, seed uint64, conn, nops int) *Ring {
	s := NewStream(w, seed, conn)
	r := &Ring{Ops: make([]Op, nops), end: make([]uint32, nops)}
	// Size the buffer from the longest command of each kind so that it
	// is allocated once: growing by append would leave the ring with up
	// to twice the memory it needs, which the RSS metric would then carry.
	var scratch []byte
	perOp := 0
	for k, pct := range w.Pct {
		scratch = w.AppendCommand(scratch[:0], Op{Kind: Kind(k), Key: w.Keys - 1})
		perOp += len(scratch) * pct
	}
	r.buf = make([]byte, 0, nops*perOp/100+64<<10)
	for i := range r.Ops {
		op := s.Next()
		r.Ops[i] = op
		r.buf = w.AppendCommand(r.buf, op)
		r.end[i] = uint32(len(r.buf))
	}
	return r
}

// Bytes returns the wire bytes of ops [i, j).
func (r *Ring) Bytes(i, j int) []byte {
	start := uint32(0)
	if i > 0 {
		start = r.end[i-1]
	}
	return r.buf[start:r.end[j-1]]
}

// Stats accumulates what one client saw during one phase of a run.
type Stats struct {
	Units, Ops, Failed uint64
	Gets, Hits         uint64
	// Inserts counts SET and SETEX replies that reported a fresh key;
	// Refills counts the SETs queued by missed GETs; RangePairs counts the
	// key/value pairs RANGE replies carried.
	Inserts, Refills, RangePairs uint64
	// Lat holds one sample per request unit: first byte written to last
	// reply verified.
	Lat Hist
	// The spans of a traced phase, summed over its request units: encoding
	// the unit's refills, the write call, time blocked in reads, and the
	// rest of the interval from write to last reply (parse and verify).
	EncodeNs, FlushNs, WaitNs, ParseNs int64
}

// Add folds o into s.
func (s *Stats) Add(o *Stats) {
	s.Units += o.Units
	s.Ops += o.Ops
	s.Failed += o.Failed
	s.Gets += o.Gets
	s.Hits += o.Hits
	s.Inserts += o.Inserts
	s.Refills += o.Refills
	s.RangePairs += o.RangePairs
	s.Lat.Merge(&o.Lat)
	s.EncodeNs += o.EncodeNs
	s.FlushNs += o.FlushNs
	s.WaitNs += o.WaitNs
	s.ParseNs += o.ParseNs
}

// ErrTorn reports reply bytes that cannot be parsed as replies.
var ErrTorn = errors.New("gen: torn reply stream")

// Client drives one connection in a closed loop: write a request unit,
// read and verify every reply, repeat.
type Client struct {
	w    *Workload
	nc   net.Conn
	ring *Ring
	pos  int

	rbuf   []byte
	rp, rn int // unread reply bytes are rbuf[rp:rn]

	out    []byte
	refill []Op // SETs queued by the previous unit's misses
	unit   []Op // the refills riding the unit in flight
}

// NewClient wraps an established connection.
func NewClient(w *Workload, nc net.Conn) *Client {
	// A unit's replies are read as they arrive, so the buffer only has to
	// hold the largest single reply: a full RANGE page.
	return &Client{w: w, nc: nc, rbuf: make([]byte, 64<<10)}
}

// SetRing installs the requests the client will send.
func (c *Client) SetRing(r *Ring) {
	if len(r.Ops)%c.w.Depth != 0 {
		panic("gen: ring length is not a multiple of the pipeline depth")
	}
	c.ring, c.pos = r, 0
}

// fill reads more reply bytes, first making room at the tail.
func (c *Client) fill(st *Stats, traced bool) error {
	if c.rp == c.rn {
		c.rp, c.rn = 0, 0
	} else if c.rn == len(c.rbuf) {
		if c.rp == 0 {
			return fmt.Errorf("%w: reply larger than %d bytes", ErrTorn, len(c.rbuf))
		}
		c.rn = copy(c.rbuf, c.rbuf[c.rp:c.rn])
		c.rp = 0
	}
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	n, err := c.nc.Read(c.rbuf[c.rn:])
	if traced {
		st.WaitNs += int64(time.Since(t0))
	}
	c.rn += n
	if n > 0 {
		return nil
	}
	return err
}

// Unit sends the next Depth ring ops, plus the refills the previous unit
// queued, as one write, and verifies every reply. A nil error means the
// stream is still in step; wrong replies are counted in st.Failed. On an
// error every reply still owed is counted as failed.
func (c *Client) Unit(st *Stats, traced bool) error {
	d := c.w.Depth
	ops := c.ring.Ops[c.pos : c.pos+d]
	req := c.ring.Bytes(c.pos, c.pos+d)
	if c.pos += d; c.pos == len(c.ring.Ops) {
		c.pos = 0
	}

	var tEncode time.Time
	if traced {
		tEncode = time.Now()
	}
	c.unit, c.refill = c.refill, c.unit[:0]
	if len(c.unit) > 0 {
		c.out = append(c.out[:0], req...)
		for _, op := range c.unit {
			c.out = c.w.AppendCommand(c.out, op)
		}
		req = c.out
	}
	total := d + len(c.unit)
	st.Units++
	st.Ops += uint64(total)
	st.Refills += uint64(len(c.unit))

	t0 := time.Now()
	if _, err := c.nc.Write(req); err != nil {
		st.Failed += uint64(total)
		return err
	}
	var tWritten time.Time
	waitBefore := st.WaitNs
	if traced {
		tWritten = time.Now()
	}
	for i := 0; i < total; i++ {
		op := Op{}
		if i < d {
			op = ops[i]
		} else {
			op = c.unit[i-d]
		}
		n, status, r := c.w.Check(op, c.rbuf[c.rp:c.rn])
		for status == Incomplete {
			if err := c.fill(st, traced); err != nil {
				st.Failed += uint64(total - i)
				return err
			}
			n, status, r = c.w.Check(op, c.rbuf[c.rp:c.rn])
		}
		c.rp += n
		switch status {
		case Torn:
			st.Failed += uint64(total - i)
			return ErrTorn
		case Wrong:
			st.Failed++
			continue
		}
		switch op.Kind {
		case Get:
			st.Gets++
			if r.Hit {
				st.Hits++
			} else if c.w.Refill {
				c.refill = append(c.refill, Op{Kind: Set, Key: op.Key})
			}
		case Set, SetEX:
			if !r.Hit {
				st.Inserts++
			}
		case Range:
			st.RangePairs += uint64(r.Pairs)
		}
	}
	t1 := time.Now()
	st.Lat.Record(int64(t1.Sub(t0)))
	if traced {
		st.EncodeNs += int64(t0.Sub(tEncode))
		st.FlushNs += int64(tWritten.Sub(t0))
		st.ParseNs += int64(t1.Sub(tWritten)) - (st.WaitNs - waitBefore)
	}
	return nil
}

// Preload stores every preloaded key of [from, to) with pipelined MSETs
// and checks that each one reports all of its keys as fresh. It returns
// the number of keys and the key-plus-value bytes stored.
func (c *Client) Preload(from, to uint32) (keys, userBytes int, err error) {
	const pairs, pipeline = 64, 4
	var batch [pairs]uint32
	var want [pipeline]int
	var kb [24]byte
	var vb [MaxValueLen]byte
	i := from
	for i < to {
		c.out = c.out[:0]
		cmds := 0
		for ; cmds < pipeline && i < to; cmds++ {
			n := 0
			for ; n < pairs && i < to; i++ {
				if c.w.Preloaded(i) {
					batch[n] = i
					n++
				}
			}
			if n == 0 {
				break
			}
			want[cmds] = n
			keys += n
			c.out = appendHeader(c.out, 1+2*n, "MSET")
			for _, k := range batch[:n] {
				key, val := c.w.AppendKey(kb[:0], k), c.w.AppendValue(vb[:0], k)
				userBytes += len(key) + len(val)
				c.out = appendBulk(appendBulk(c.out, key), val)
			}
		}
		if _, err := c.nc.Write(c.out); err != nil {
			return keys, userBytes, err
		}
		for _, n := range want[:cmds] {
			typ, got, next, ok := header(c.rbuf[c.rp:c.rn], 0)
			for next == 0 {
				if err := c.fill(nil, false); err != nil {
					return keys, userBytes, err
				}
				typ, got, next, ok = header(c.rbuf[c.rp:c.rn], 0)
			}
			c.rp += next
			if !ok || typ != ':' || got != int64(n) {
				return keys, userBytes, errors.New("gen: preload MSET of " + strconv.Itoa(n) + " keys was not all fresh inserts")
			}
		}
	}
	return keys, userBytes, nil
}
