package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/optik-go/optik/store"
)

// TestReplyStreamMatchesModel is the wire's reply property: for random
// mixed pipelines — scalar and multi-key commands, inline and multibulk
// framing, duplicate keys, arity errors, unknown commands — the reply
// stream must be byte-identical to what a sequential model renders for the
// same commands. The rounds of a subtest share one server and one model,
// so state carries across connections. The client writes its pipeline
// one request at a time, four at a time or all at once, so the server's
// input drains — and it flushes its batch — at different points; with a
// 512 B buffer, replies spill mid-pipeline and mid-MGET and the read
// buffer slides under partial frames. On the ordered server any key may be one the codec refuses (not
// decimal, or a sentinel): the request carrying it answers -ERR invalid
// key, and a multi-key frame carrying it applies none of its keys.
func TestReplyStreamMatchesModel(t *testing.T) {
	seed := int64(0xC0A1)
	for _, srv := range ttlServers {
		for _, pipeline := range []int{1, 4, 512} {
			for _, bufSize := range []int{512, 16384} {
				seed++
				name := fmt.Sprintf("%s/pipeline=%d/bufsize=%d", srv.name, pipeline, bufSize)
				t.Run(name, func(t *testing.T) {
					ordered := srv.ordered
					addr := startModelServer(t, ordered, withBufferSize(bufSize))
					m := replyModel{ordered: ordered, vals: map[string]string{}}
					rng := rand.New(rand.NewSource(seed))
					for round := 0; round < 8; round++ {
						frames, cmds := randomPipeline(rng, 150, ordered)
						var want []byte
						for _, cmd := range cmds {
							want = m.reply(want, cmd)
						}
						var writes [][]byte
						for len(frames) > 0 {
							n := min(pipeline, len(frames))
							writes = append(writes, bytes.Join(frames[:n], nil))
							frames = frames[n:]
						}
						if got := roundTrip(t, addr, writes...); !bytes.Equal(got, want) {
							t.Fatalf("round %d: reply stream diverged from the model\npipeline: %q\n    want: %q\n     got: %q",
								round, bytes.Join(writes, nil), want, got)
						}
					}
				})
			}
		}
	}
}

// startModelServer boots a hash or an ordered loopback server.
func startModelServer(t *testing.T, ordered bool, opts ...Option) string {
	t.Helper()
	if !ordered {
		_, _, addr := startServer(t, opts...)
		return addr
	}
	st := store.NewSortedStrings()
	srv := NewOrdered(st, opts...)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() {
		srv.Close()
		st.Close()
	})
	return addr.String()
}

// badKeys are the keys an ordered server refuses: not decimal, or one of
// the index's two sentinels.
var badKeys = []string{"k7", "-3", "0", "18446744073709551615"}

// replyModel is the sequential reference: a map from key to value and the
// RESP reply each command earns against it, framed by hand rather than by
// the server's helpers.
type replyModel struct {
	ordered bool
	vals    map[string]string
}

func (m *replyModel) bad(key string) bool { return m.ordered && slices.Contains(badKeys, key) }

// anyBad reports whether one of every stride-th args is a refused key.
func (m *replyModel) anyBad(args []string, stride int) bool {
	for i := 0; i < len(args); i += stride {
		if m.bad(args[i]) {
			return true
		}
	}
	return false
}

// reply applies one command to the model and appends its reply to dst.
func (m *replyModel) reply(dst []byte, args []string) []byte {
	cmd, rest := args[0], args[1:]
	arity := func(name string) []byte {
		return fmt.Appendf(dst, "-ERR wrong number of arguments for '%s'\r\n", name)
	}
	invalid := func() []byte { return append(dst, "-ERR invalid key\r\n"...) }
	get := func(dst []byte, key string) []byte {
		if v, ok := m.vals[key]; ok {
			return fmt.Appendf(dst, "$%d\r\n%s\r\n", len(v), v)
		}
		return append(dst, "$-1\r\n"...)
	}
	count := func(n int) []byte { return fmt.Appendf(dst, ":%d\r\n", n) }
	switch cmd {
	case "GET":
		if len(rest) != 1 {
			return arity("get")
		}
		if m.bad(rest[0]) {
			return invalid()
		}
		return get(dst, rest[0])
	case "MGET":
		if len(rest) == 0 {
			return arity("mget")
		}
		if m.anyBad(rest, 1) {
			return invalid()
		}
		dst = fmt.Appendf(dst, "*%d\r\n", len(rest))
		for _, k := range rest {
			dst = get(dst, k)
		}
		return dst
	case "SET", "MSET":
		if cmd == "SET" && len(rest) != 2 {
			return arity("set")
		}
		if len(rest) == 0 || len(rest)%2 != 0 {
			return arity("mset")
		}
		if m.anyBad(rest, 2) {
			return invalid()
		}
		inserted := 0
		for i := 0; i < len(rest); i += 2 {
			if _, ok := m.vals[rest[i]]; !ok {
				inserted++
			}
			m.vals[rest[i]] = rest[i+1]
		}
		if cmd == "SET" {
			return count(1 - inserted) // 1 when it replaced a value
		}
		return count(inserted)
	case "DEL", "MDEL":
		if cmd == "DEL" && len(rest) != 1 {
			return arity("del")
		}
		if len(rest) == 0 {
			return arity("mdel")
		}
		if m.anyBad(rest, 1) {
			return invalid()
		}
		deleted := 0
		for _, k := range rest {
			if _, ok := m.vals[k]; ok {
				deleted++
				delete(m.vals, k)
			}
		}
		return count(deleted)
	case "LEN":
		return count(len(m.vals))
	case "PING":
		return append(dst, "+PONG\r\n"...)
	case "QUIT":
		return append(dst, "+OK\r\n"...)
	}
	return fmt.Appendf(dst, "-ERR unknown command \"%s\"\r\n", cmd)
}

// roundTrip writes one pipeline (ending in QUIT), one Write per element
// of writes, and reads the whole reply stream to EOF.
func roundTrip(t *testing.T, addr string, writes ...[]byte) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(20 * time.Second))
	for _, w := range writes {
		if _, err := conn.Write(w); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	out, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return out
}

// randomPipeline builds n random commands followed by QUIT, mixing
// inline and multibulk framing, and returns each command's frame and
// arguments.
// Keys come from a small space so requests hit duplicates, overwrites and
// misses — decimal ones for an ordered server, with a refused key now and
// then; a third of the values are long enough to spill a 512 B reply
// buffer within one MGET. Commands cover every point and multi-key family
// and soft errors (never malformed frames — those end the connection).
func randomPipeline(rng *rand.Rand, n int, ordered bool) ([][]byte, [][]string) {
	var frames [][]byte
	var cmds [][]string
	key := func() string {
		switch {
		case !ordered:
			return fmt.Sprintf("k%d", rng.Intn(24))
		case rng.Intn(12) == 0:
			return badKeys[rng.Intn(len(badKeys))]
		}
		return strconv.Itoa(rng.Intn(24) + 1)
	}
	val := func() string {
		v := fmt.Sprintf("v%d", rng.Intn(1000))
		if rng.Intn(3) == 0 {
			v += strings.Repeat("x", rng.Intn(60))
		}
		return v
	}
	emit := func(args ...string) {
		cmds = append(cmds, args)
		var b []byte
		if rng.Intn(2) == 0 { // inline
			b = append(b, strings.Join(args, " ")...)
			b = append(b, "\r\n"...)
		} else { // multibulk
			b = fmt.Appendf(b, "*%d\r\n", len(args))
			for _, a := range args {
				b = fmt.Appendf(b, "$%d\r\n%s\r\n", len(a), a)
			}
		}
		frames = append(frames, b)
	}
	for i := 0; i < n; i++ {
		switch r := rng.Intn(20); {
		case r < 6:
			emit("GET", key())
		case r < 10:
			emit("SET", key(), val())
		case r < 12:
			emit("DEL", key())
		case r < 14:
			args := []string{"MGET"}
			for j := rng.Intn(8) + 1; j > 0; j-- {
				args = append(args, key())
			}
			emit(args...)
		case r < 16:
			args := []string{"MSET"}
			for j := rng.Intn(4) + 1; j > 0; j-- {
				args = append(args, key(), val())
			}
			emit(args...)
		case r < 17:
			args := []string{"MDEL"}
			for j := rng.Intn(5) + 1; j > 0; j-- {
				args = append(args, key())
			}
			emit(args...)
		case r < 18:
			emit([]string{"PING", "LEN"}[rng.Intn(2)])
		default:
			// Soft errors: wrong arity and unknown commands, whose error
			// reply must still land in order.
			switch rng.Intn(4) {
			case 0:
				emit("GET")
			case 1:
				emit("SET", key())
			case 2:
				emit("MGET")
			default:
				emit("FROB", key())
			}
		}
	}
	emit("QUIT")
	return frames, cmds
}

// TestClientMultibulkRoundTrip drives the client's multibulk batch mode
// against a live server, including a batch large enough to require
// chunking under the per-frame argument cap.
func TestClientMultibulkRoundTrip(t *testing.T) {
	_, _, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	c.SetMultibulk(true)

	const n = maxBatchKeys + 100 // forces a second MGET/MDEL frame
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
		vals[i] = uint64(i) * 3
	}
	if ins := c.MSet(keys, vals); ins != n {
		t.Fatalf("MSet inserted %d, want %d", ins, n)
	}
	got := make([]uint64, n)
	found := make([]bool, n)
	c.MGet(keys, got, found)
	for i := range keys {
		if !found[i] || got[i] != vals[i] {
			t.Fatalf("MGet[%d] = %d,%v want %d,true", i, got[i], found[i], vals[i])
		}
	}
	if del := c.MDel(keys); del != n {
		t.Fatalf("MDel removed %d, want %d", del, n)
	}
	if c.Len() != 0 {
		t.Fatalf("Len after MDel = %d, want 0", c.Len())
	}
}
