package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	"github.com/optik-go/optik/internal/backoff"
)

// Client is a single-connection client for the wire protocol, shaped for
// the load generator: keys and values are uint64s rendered as decimal
// strings, multi-key operations are issued as pipelines of scalar
// commands (k commands written, one flush, k replies read in order), so a
// batch of size k exercises exactly pipeline depth k on the server. A
// Client is NOT safe for concurrent use; the net workload target keeps a
// pool of them.
//
// Wire protocol errors are reported by panicking: the client exists for
// the benchmark and test harnesses, where a malformed reply is a bug to
// surface loudly, not an error to propagate through a hot measurement
// loop.
//
// Overload is the exception: a `-ERR busy retry` reply (the shedding
// contract in docs/PROTOCOL.md) and transport-level failures are
// transient, so by default every operation retries them — jittered
// exponential backoff, redial, replay — up to a bounded attempt count
// before falling back to the panic. SetRetry tunes or disables this.
// Because an operation may be replayed after an ambiguous failure, a
// write's side effects can apply twice; SET/DEL are upserts/removals so
// the store converges, but the replayed reply (replaced/present flags)
// may differ from what the lost original would have said.
type Client struct {
	conn      net.Conn
	r         *bufio.Reader
	w         *bufio.Writer
	out       []byte // command build buffer: a whole pipeline, one Write
	bulk      []byte // reusable bulk-reply buffer (slow path)
	multibulk bool   // batch ops send real MGET/MSET/MDEL frames

	addr     string
	closed   bool
	attempts int // tries per operation (1 = no retry)
	bo       backoff.Jittered
	retries  uint64
}

// DefaultRetries is how many times an operation is tried before a
// transient failure (busy reply, broken connection) escalates to a panic.
const DefaultRetries = 6

// clientRetryable is the panic payload for transient failures; do()
// converts it into backoff + redial + replay, or into the original string
// panic once the attempts run out.
type clientRetryable struct{ msg string }

// retryf panics with a retryable failure carrying the conventional
// "server client: ..." message.
func retryf(format string, args ...any) {
	panic(&clientRetryable{msg: fmt.Sprintf(format, args...)})
}

// do runs op, absorbing retryable panics: jittered backoff (the shedding
// server asked exactly for that), redial, replay. Non-retryable panics —
// protocol violations, server error replies other than busy — pass
// through untouched, and exhausted retries re-panic with the first
// failure's message so disabled-retry behavior matches the old client.
func (c *Client) do(op func()) {
	first := c.try(op)
	if first == nil {
		c.bo.Reset()
		return
	}
	for attempt := 1; ; attempt++ {
		if c.closed || attempt >= c.attempts {
			panic(first.msg)
		}
		time.Sleep(c.bo.Next())
		c.retries++
		if !c.redial() {
			continue
		}
		if err := c.try(op); err == nil {
			c.bo.Reset()
			return
		}
	}
}

func (c *Client) try(op func()) (rerr *clientRetryable) {
	defer func() {
		if r := recover(); r != nil {
			cr, ok := r.(*clientRetryable)
			if !ok {
				panic(r)
			}
			rerr = cr
		}
	}()
	op()
	return nil
}

// redial replaces the connection after a transient failure. The build
// buffer is already empty (flush clears it even on error) and any
// half-read pipeline died with the old conn.
func (c *Client) redial() bool {
	c.conn.Close()
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return false
	}
	c.conn = conn
	c.r.Reset(conn)
	c.w.Reset(conn)
	c.out = c.out[:0]
	return true
}

// SetRetry sets how many times an operation is tried before a transient
// failure panics (default DefaultRetries); n <= 1 disables retrying.
func (c *Client) SetRetry(n int) {
	if n < 1 {
		n = 1
	}
	c.attempts = n
}

// Retries reports how many transient-failure retries this client has
// performed (busy replies honored, broken connections redialed).
func (c *Client) Retries() uint64 { return c.retries }

// SetMultibulk switches the batch operations (MGet/MSet/MDel) between
// pipelined scalar commands (the default: k GET frames, depth-k
// pipeline) and true multi-key frames (one MGET frame carrying k keys,
// chunked under the server's per-request argument cap). The two modes
// are semantically identical; they differ in which server path the
// batch exercises — the coalescer assembling a run from scalars versus
// the wire-level batched handler.
func (c *Client) SetMultibulk(on bool) { c.multibulk = on }

// Dial connects to a server at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{
		conn:     conn,
		r:        bufio.NewReaderSize(conn, 16384),
		w:        bufio.NewWriterSize(conn, 16384),
		addr:     addr,
		attempts: DefaultRetries,
	}, nil
}

// Close closes the connection. Idempotent; a closed client never redials.
func (c *Client) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.conn.Close()
}

// appendCommand appends one inline command to the build buffer; flush
// hands the whole pipeline to the socket in one write.
func (c *Client) appendCommand(cmd string, args ...uint64) {
	c.out = append(c.out, cmd...)
	for _, a := range args {
		c.out = append(c.out, ' ')
		c.out = strconv.AppendUint(c.out, a, 10)
	}
	c.out = append(c.out, crlf...)
}

// Multibulk frame chunking: a frame carries at most maxArgs args
// including the command name, so one MGET/MDEL moves up to maxBatchKeys
// keys and one MSET up to maxBatchPairs pairs; larger batches are split
// into consecutive frames in the same pipeline.
const (
	maxBatchKeys  = maxArgs - 1
	maxBatchPairs = (maxArgs - 1) / 2
)

// beginMulti appends a multibulk array header for n items.
func (c *Client) beginMulti(n int) {
	c.out = append(c.out, '*')
	c.out = strconv.AppendInt(c.out, int64(n), 10)
	c.out = append(c.out, crlf...)
}

// bulkString appends one bulk-framed string item.
func (c *Client) bulkString(s string) {
	c.out = append(c.out, '$')
	c.out = strconv.AppendInt(c.out, int64(len(s)), 10)
	c.out = append(c.out, crlf...)
	c.out = append(c.out, s...)
	c.out = append(c.out, crlf...)
}

// bulkUint appends one bulk-framed decimal uint64 item.
func (c *Client) bulkUint(v uint64) {
	var tmp [20]byte
	b := strconv.AppendUint(tmp[:0], v, 10)
	c.out = append(c.out, '$')
	c.out = strconv.AppendInt(c.out, int64(len(b)), 10)
	c.out = append(c.out, crlf...)
	c.out = append(c.out, b...)
	c.out = append(c.out, crlf...)
}

func (c *Client) flush() {
	_, err := c.w.Write(c.out)
	c.out = c.out[:0]
	if err == nil {
		err = c.w.Flush()
	}
	if err != nil {
		retryf("server client: %s", err.Error())
	}
}

// readLine reads one \r\n (or bare \n) terminated reply line, returning a
// view into the reader's buffer with the terminator stripped. The view is
// only valid until the next read.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			return nil, protoErrorf("line exceeds %d bytes", r.Size())
		}
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// readReply reads one reply, returning its type byte and, for ':' the
// integer, for '$' the bulk payload (a view into c.bulk, valid until the
// next read), with nil payload and n == -1 for a nil bulk.
func (c *Client) readReply() (kind byte, n int64, payload []byte) {
	line, err := readLine(c.r)
	if err != nil {
		retryf("server client: read: %s", err.Error())
	}
	if len(line) == 0 {
		panic("server client: empty reply line")
	}
	kind = line[0]
	switch kind {
	case '+':
		c.bulk = append(c.bulk[:0], line[1:]...)
		return kind, 0, c.bulk
	case '-':
		// The busy reply is the server's shedding contract: transient by
		// definition, so it retries; every other server error is a bug to
		// surface.
		if strings.HasPrefix(string(line[1:]), "ERR busy") {
			retryf("server client: server busy: %s", line[1:])
		}
		panic("server client: server error: " + string(line[1:]))
	case ':':
		v, ok := parseInt(line[1:])
		if !ok {
			panic("server client: bad integer reply " + string(line))
		}
		return kind, v, nil
	case '$':
		blen, ok := parseInt(line[1:])
		if !ok || blen < -1 || blen > maxBulk {
			panic("server client: bad bulk length " + string(line))
		}
		if blen == -1 {
			return kind, -1, nil
		}
		// Fast path: payload and terminator already buffered — return a
		// view and skip the copy (the caller consumes it before the next
		// read, same contract as c.bulk).
		if n := int(blen) + 2; n <= c.r.Buffered() {
			b, err := c.r.Peek(n)
			if err != nil || b[n-2] != '\r' || b[n-1] != '\n' {
				panic("server client: bulk string not CRLF-terminated")
			}
			c.r.Discard(n)
			return kind, blen, b[:blen]
		}
		if cap(c.bulk) < int(blen) {
			c.bulk = make([]byte, blen)
		}
		c.bulk = c.bulk[:blen]
		if _, err := io.ReadFull(c.r, c.bulk); err != nil {
			retryf("server client: read bulk: %s", err.Error())
		}
		if _, err := readLine(c.r); err != nil {
			retryf("server client: read bulk terminator: %s", err.Error())
		}
		return kind, blen, c.bulk
	case '*':
		v, ok := parseInt(line[1:])
		if !ok {
			panic("server client: bad array header " + string(line))
		}
		return kind, v, nil
	default:
		panic("server client: unknown reply type " + string(line))
	}
}

// readInt reads a reply that must be an integer.
func (c *Client) readInt() int64 {
	kind, n, _ := c.readReply()
	if kind != ':' {
		panic("server client: expected integer reply, got type " + string(kind))
	}
	return n
}

// readValue reads a bulk reply holding a decimal uint64 (or nil bulk).
func (c *Client) readValue() (uint64, bool) {
	kind, n, payload := c.readReply()
	if kind != '$' {
		panic("server client: expected bulk reply, got type " + string(kind))
	}
	if n == -1 {
		return 0, false
	}
	v, ok := parseUint(payload)
	if !ok {
		panic("server client: non-numeric value " + string(payload))
	}
	return v, true
}

// Get fetches one key.
func (c *Client) Get(key uint64) (v uint64, ok bool) {
	c.do(func() {
		c.appendCommand("GET", key)
		c.flush()
		v, ok = c.readValue()
	})
	return
}

// Set stores key→val, reporting whether an existing value was replaced.
// The wire protocol does not return the old value; the uint64 result is
// always 0 and exists to mirror store.Store's Set shape.
func (c *Client) Set(key, val uint64) (uint64, bool) {
	var replaced bool
	c.do(func() {
		c.appendCommand("SET", key, val)
		c.flush()
		replaced = c.readInt() == 1
	})
	return 0, replaced
}

// Del removes key, reporting presence (the removed value itself does not
// travel back; the uint64 is always 0, as in Set).
func (c *Client) Del(key uint64) (uint64, bool) {
	var present bool
	c.do(func() {
		c.appendCommand("DEL", key)
		c.flush()
		present = c.readInt() == 1
	})
	return 0, present
}

// Insert emulates insert-if-absent over the upsert wire SET: it reports
// true when the key was fresh. Unlike a true Insert it overwrites an
// existing value, so it is only suitable for idempotent seeding.
func (c *Client) Insert(key, val uint64) bool {
	_, replaced := c.Set(key, val)
	return !replaced
}

// MGet fetches a batch of keys — pipelined GETs by default, true MGET
// frames in multibulk mode — filling vals and found like store.Store.MGet.
func (c *Client) MGet(keys, vals []uint64, found []bool) {
	c.do(func() {
		if c.multibulk {
			for start := 0; start < len(keys); start += maxBatchKeys {
				chunk := keys[start:min(start+maxBatchKeys, len(keys))]
				c.beginMulti(len(chunk) + 1)
				c.bulkString("MGET")
				for _, k := range chunk {
					c.bulkUint(k)
				}
			}
			c.flush()
			i := 0
			for start := 0; start < len(keys); start += maxBatchKeys {
				end := min(start+maxBatchKeys, len(keys))
				if kind, n, _ := c.readReply(); kind != '*' || int(n) != end-start {
					panic("server client: bad MGET array header")
				}
				for ; i < end; i++ {
					vals[i], found[i] = c.readValue()
				}
			}
			return
		}
		for _, k := range keys {
			c.appendCommand("GET", k)
		}
		c.flush()
		for i := range keys {
			vals[i], found[i] = c.readValue()
		}
	})
}

// MSet stores a batch of pairs — pipelined SETs by default, true MSET
// frames in multibulk mode — returning how many were fresh inserts.
func (c *Client) MSet(keys, vals []uint64) int {
	inserted := 0
	c.do(func() {
		inserted = 0
		if c.multibulk {
			for start := 0; start < len(keys); start += maxBatchPairs {
				end := min(start+maxBatchPairs, len(keys))
				c.beginMulti((end-start)*2 + 1)
				c.bulkString("MSET")
				for i := start; i < end; i++ {
					c.bulkUint(keys[i])
					c.bulkUint(vals[i])
				}
			}
			c.flush()
			for start := 0; start < len(keys); start += maxBatchPairs {
				inserted += int(c.readInt())
			}
			return
		}
		for i, k := range keys {
			c.appendCommand("SET", k, vals[i])
		}
		c.flush()
		for range keys {
			if c.readInt() == 0 {
				inserted++
			}
		}
	})
	return inserted
}

// MDel removes a batch of keys — pipelined DELs by default, true MDEL
// frames in multibulk mode — returning how many were present.
func (c *Client) MDel(keys []uint64) int {
	deleted := 0
	c.do(func() {
		deleted = 0
		if c.multibulk {
			for start := 0; start < len(keys); start += maxBatchKeys {
				chunk := keys[start:min(start+maxBatchKeys, len(keys))]
				c.beginMulti(len(chunk) + 1)
				c.bulkString("MDEL")
				for _, k := range chunk {
					c.bulkUint(k)
				}
			}
			c.flush()
			for start := 0; start < len(keys); start += maxBatchKeys {
				deleted += int(c.readInt())
			}
			return
		}
		for _, k := range keys {
			c.appendCommand("DEL", k)
		}
		c.flush()
		for range keys {
			if c.readInt() == 1 {
				deleted++
			}
		}
	})
	return deleted
}

// Len returns the server's live key count.
func (c *Client) Len() (n int) {
	c.do(func() {
		c.appendCommand("LEN")
		c.flush()
		n = int(c.readInt())
	})
	return
}

// Quiesce asks the server to drive every shard's maintenance home.
func (c *Client) Quiesce() {
	c.do(func() {
		c.appendCommand("QUIESCE")
		c.flush()
		if kind, _, _ := c.readReply(); kind != '+' {
			panic("server client: QUIESCE failed")
		}
	})
}

// Ping round-trips a PING.
func (c *Client) Ping() (ok bool) {
	c.do(func() {
		c.appendCommand("PING")
		c.flush()
		kind, _, payload := c.readReply()
		ok = kind == '+' && string(payload) == "PONG"
	})
	return
}

// Buckets returns the server index's current bucket total (via STATS).
func (c *Client) Buckets() int { return int(c.Stats()["buckets"]) }

// Resizes returns the server index's lifetime resize count (via STATS).
func (c *Client) Resizes() int { return int(c.Stats()["resizes"]) }

// ReclaimStats returns the server index's chain-node reclamation
// counters (via STATS).
func (c *Client) ReclaimStats() (retired, reclaimed, reused uint64) {
	s := c.Stats()
	return uint64(s["nodes_retired"]), uint64(s["nodes_reclaimed"]), uint64(s["nodes_reused"])
}

// readBulkUint reads a bulk reply that must hold a decimal uint64.
func (c *Client) readBulkUint() uint64 {
	kind, _, payload := c.readReply()
	if kind != '$' {
		panic("server client: expected bulk reply, got type " + string(kind))
	}
	v, ok := parseUint(payload)
	if !ok {
		panic("server client: non-numeric bulk " + string(payload))
	}
	return v
}

// Scan issues one SCAN page against an ordered server: entries from
// cursor upward (0 starts a scan), optionally restricted to keys whose
// decimal form starts with prefix (empty = all), at most count entries
// (0 = server default). It returns the next cursor (0 = exhausted) and
// the page. Values come back as strings because an ordered store's
// values are arbitrary; the uint64-valued benchmark path uses Range.
func (c *Client) Scan(cursor uint64, prefix string, count int) (next uint64, keys []uint64, vals []string) {
	c.do(func() {
		c.appendCommand("SCAN", cursor)
		if prefix != "" {
			c.out = append(c.out[:len(c.out)-2], " PREFIX "...)
			c.out = append(c.out, prefix...)
			c.out = append(c.out, crlf...)
		}
		if count > 0 {
			c.out = append(c.out[:len(c.out)-2], " COUNT "...)
			c.out = strconv.AppendInt(c.out, int64(count), 10)
			c.out = append(c.out, crlf...)
		}
		c.flush()
		kind, n, _ := c.readReply()
		if kind != '*' || n < 1 || n%2 != 1 {
			panic("server client: bad SCAN reply header")
		}
		next = c.readBulkUint()
		pairs := int(n) / 2
		keys = make([]uint64, pairs)
		vals = make([]string, pairs)
		for i := 0; i < pairs; i++ {
			keys[i] = c.readBulkUint()
			kind, blen, payload := c.readReply()
			if kind != '$' || blen < 0 {
				panic("server client: bad SCAN value")
			}
			vals[i] = string(payload)
		}
	})
	return
}

// ScanAll drives the SCAN cursor loop to completion, returning every
// entry under prefix (empty = the whole store) in ascending key order,
// paging by count (0 = server default).
func (c *Client) ScanAll(prefix string, count int) ([]uint64, []string) {
	var keys []uint64
	var vals []string
	cursor := uint64(0)
	for {
		next, k, v := c.Scan(cursor, prefix, count)
		keys = append(keys, k...)
		vals = append(vals, v...)
		if next == 0 {
			return keys, vals
		}
		cursor = next
	}
}

// Range fills keys/vals (same length; at most that many entries are
// requested, capped by the server at its page max) with the entries in
// [min, max] ascending, returning how many arrived. Values must be
// decimal uint64s — this is the benchmark-shaped path; use Scan for
// string values.
func (c *Client) Range(min, max uint64, keys, vals []uint64) (pairs int) {
	c.do(func() {
		c.appendCommand("RANGE", min, max)
		c.out = append(c.out[:len(c.out)-2], " LIMIT "...)
		c.out = strconv.AppendInt(c.out, int64(len(keys)), 10)
		c.out = append(c.out, crlf...)
		c.flush()
		kind, n, _ := c.readReply()
		if kind != '*' || n%2 != 0 || int(n)/2 > len(keys) {
			panic("server client: bad RANGE reply header")
		}
		pairs = int(n) / 2
		for i := 0; i < pairs; i++ {
			keys[i] = c.readBulkUint()
			vals[i] = c.readBulkUint()
		}
	})
	return
}

// Min returns the smallest key and its value; ok is false when the store
// is empty.
func (c *Client) Min() (uint64, string, bool) { return c.endpoint("MIN") }

// Max returns the largest key and its value; ok is false when the store
// is empty.
func (c *Client) Max() (uint64, string, bool) { return c.endpoint("MAX") }

func (c *Client) endpoint(cmd string) (k uint64, v string, ok bool) {
	c.do(func() {
		c.appendCommand(cmd)
		c.flush()
		kind, n, _ := c.readReply()
		if kind != '*' || (n != 0 && n != 2) {
			panic("server client: bad " + cmd + " reply header")
		}
		if n == 0 {
			k, v, ok = 0, "", false
			return
		}
		k = c.readBulkUint()
		kind, blen, payload := c.readReply()
		if kind != '$' || blen < 0 {
			panic("server client: bad " + cmd + " value")
		}
		v, ok = string(payload), true
	})
	return
}

// Stats fetches and parses the STATS reply into a name→value map.
func (c *Client) Stats() (out map[string]int64) {
	c.do(func() {
		c.appendCommand("STATS")
		c.flush()
		kind, _, payload := c.readReply()
		if kind != '$' {
			panic("server client: expected bulk STATS reply")
		}
		out = make(map[string]int64)
		for _, line := range strings.Split(string(payload), "\n") {
			name, val, ok := strings.Cut(line, ":")
			if !ok {
				continue
			}
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				panic(fmt.Sprintf("server client: bad STATS line %q", line))
			}
			out[name] = n
		}
	})
	return
}
