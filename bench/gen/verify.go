package gen

import "bytes"

// Status is the verdict on the bytes at the head of a reply buffer.
type Status uint8

const (
	// Incomplete: the reply has not fully arrived; read more and retry.
	Incomplete Status = iota
	// Good: a well-formed reply that is right for the op.
	Good
	// Wrong: a well-formed reply with the wrong content (an -ERR, a value
	// that is not the key's, a RANGE out of order or out of bounds). The
	// stream stays in step, so the following replies can still be checked.
	Wrong
	// Torn: bytes that are not a reply; the stream cannot be resynchronized.
	Torn
)

// Reply is what a Good reply said.
type Reply struct {
	// Hit: a GET found a value, a SET or SETEX replaced one, a DEL removed one.
	Hit bool
	// Pairs is the number of key/value pairs a RANGE returned.
	Pairs int
}

// maxBulk bounds a bulk length the verifier will wait for; nothing the
// workloads request comes near it, so a larger header is a torn stream.
const maxBulk = 1 << 20

// header parses the "<type><int>\r\n" line at b[p:]. next is the offset
// past the line, 0 when the line has not fully arrived.
func header(b []byte, p int) (typ byte, n int64, next int, ok bool) {
	i := bytes.IndexByte(b[p:], '\n')
	if i < 0 {
		return 0, 0, 0, true
	}
	line, next := b[p:p+i], p+i+1
	// The shortest header is a type byte, one digit and the '\r'.
	if len(line) < 3 || line[len(line)-1] != '\r' {
		return 0, 0, next, false
	}
	digits := line[1 : len(line)-1]
	neg := digits[0] == '-'
	if neg {
		digits = digits[1:]
	}
	if len(digits) == 0 || len(digits) > 18 {
		return line[0], 0, next, false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return line[0], 0, next, false
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return line[0], n, next, true
}

// bulk parses the bulk string at b[p:]. body is nil for the nil bulk.
// next is 0 when the bulk has not fully arrived.
func bulk(b []byte, p int) (body []byte, next int, st Status) {
	typ, n, q, ok := header(b, p)
	if q == 0 {
		return nil, 0, Incomplete
	}
	if !ok || typ != '$' || n < -1 || n > maxBulk {
		return nil, q, Torn
	}
	if n == -1 {
		return nil, q, Good
	}
	end := q + int(n)
	if end+2 > len(b) {
		return nil, 0, Incomplete
	}
	if b[end] != '\r' || b[end+1] != '\n' {
		return nil, end + 2, Torn
	}
	return b[q:end:end], end + 2, Good
}

func (w *Workload) valueIs(i uint32, body []byte) bool {
	var vb [MaxValueLen]byte
	return bytes.Equal(body, w.AppendValue(vb[:0], i))
}

// Check verifies the reply to op at the head of b and returns how many
// bytes it occupied (0 while Incomplete).
func (w *Workload) Check(op Op, b []byte) (n int, st Status, r Reply) {
	if len(b) == 0 {
		return 0, Incomplete, r
	}
	switch b[0] {
	case '-', '+':
		// A status or error line answers none of the generated commands.
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			return 0, Incomplete, r
		}
		return i + 1, Wrong, r
	case '$', ':', '*':
	default:
		return 0, Torn, r
	}
	switch op.Kind {
	case Get:
		body, next, st := bulk(b, 0)
		if st != Good {
			return next, st, r
		}
		if body == nil {
			return next, Good, r
		}
		if !w.valueIs(op.Key, body) {
			return next, Wrong, r
		}
		return next, Good, Reply{Hit: true}
	case Set, SetEX, Del:
		typ, v, next, ok := header(b, 0)
		if next == 0 {
			return 0, Incomplete, r
		}
		if !ok {
			return next, Torn, r
		}
		if typ != ':' || v < 0 || v > 1 {
			return next, Wrong, r
		}
		return next, Good, Reply{Hit: v == 1}
	}
	return w.checkRange(op, b)
}

// checkRange verifies a RANGE reply: at most RangeLen pairs, keys strictly
// ascending inside the requested bounds, each value the one its key owns.
func (w *Workload) checkRange(op Op, b []byte) (int, Status, Reply) {
	typ, m, p, ok := header(b, 0)
	if p == 0 {
		return 0, Incomplete, Reply{}
	}
	if !ok || typ != '*' || m < 0 || m > maxBulk {
		return p, Torn, Reply{}
	}
	lo, hi := w.RangeBounds(op.Key)
	verdict := Good
	if m%2 != 0 || m/2 > int64(w.RangeLen) {
		verdict = Wrong
	}
	prev := lo - 1
	for j := int64(0); j < m; j++ {
		body, next, st := bulk(b, p)
		if st != Good {
			return next, st, Reply{}
		}
		p = next
		if body == nil {
			verdict = Wrong
			continue
		}
		if j%2 == 0 {
			key, ok := parseKey(body)
			if !ok || key <= prev || key > hi || key%KeyStride != 0 {
				verdict = Wrong
				key = hi // whatever follows is out of order too
			}
			prev = key
		} else if !w.valueIs(uint32(prev/KeyStride-1), body) {
			verdict = Wrong
		}
	}
	return p, verdict, Reply{Pairs: int(m / 2)}
}

func parseKey(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 19 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}
