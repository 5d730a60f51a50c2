package server

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
)

// Wire framing (see docs/PROTOCOL.md for the full spec). Requests arrive
// in either of two RESP-flavored forms:
//
//	inline:  GET user:1\r\n                 (fields split on spaces)
//	array:   *3\r\n$3\r\nSET\r\n$6\r\nuser:1\r\n$5\r\nalice\r\n
//
// and replies use the RESP scalar types:
//
//	+OK\r\n   -ERR msg\r\n   :42\r\n   $5\r\nalice\r\n   $-1\r\n   *2\r\n...
//
// The parser copies nothing: every argument, inline or multibulk, is a view
// into the connection's read buffer, so the steady state allocates nothing
// and a buffered frame is parsed once.

const (
	// maxArgs bounds a single request's argument count (an MGET of
	// maxArgs-1 keys still fits).
	maxArgs = 1024
	// maxBulk bounds one argument's byte length.
	maxBulk = 8 << 20
	// maxRequest bounds one request's total argument bytes. Without it
	// the two per-item limits still admit maxArgs×maxBulk = 8 GiB into
	// one connection's read buffer — one client could pin the whole box.
	// All three are checked from the headers, before a body is buffered.
	maxRequest = 64 << 20
)

// The store's value header keeps a 31-bit length (the top bit flags a
// deadline) and refuses anything longer with a panic; this fails the build
// unless maxBulk < 1<<31, so the wire can never reach that panic.
const _ int32 = maxBulk

// errQuit signals a clean client-requested shutdown of one connection.
var errQuit = errors.New("quit")

// protoError is a framing violation after which the stream cannot be
// re-synchronized; the server reports it and closes the connection.
type protoError struct{ msg string }

func (e *protoError) Error() string { return "ERR protocol error: " + e.msg }

func protoErrorf(format string, args ...any) error {
	return &protoError{msg: fmt.Sprintf(format, args...)}
}

// request holds one parsed request: its arguments are views into the
// buffer parse was handed, valid until the caller moves or refills it.
type request struct {
	args [][]byte
}

// blanks counts the leading \r and \n bytes of b. Empty lines between
// requests are ignored (so a human on netcat can hit return).
func blanks(b []byte) int {
	i := 0
	for i < len(b) && (b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// cutLine returns the first \r\n (or bare \n) terminated line of b with the
// terminator stripped, and the bytes it spans. n == 0 means no whole line
// yet — or, with err set, that there never will be: a line, terminator
// included, is at most max bytes.
func cutLine(b []byte, max int) (line []byte, n int, err error) {
	if len(b) > max {
		b = b[:max]
	}
	i := bytes.IndexByte(b, '\n')
	if i < 0 {
		if len(b) == max {
			return nil, 0, protoErrorf("line exceeds %d bytes", max)
		}
		return nil, 0, nil
	}
	line = b[:i]
	if i > 0 && line[i-1] == '\r' {
		line = line[:i-1]
	}
	return line, i + 1, nil
}

// parse parses the request at the front of buf into q.args and returns the
// bytes it spans, leading blank lines included. 0, nil means buf does not
// hold a whole request yet: nothing was consumed, call again once more
// bytes have arrived. A *protoError is fatal to the connection. Lines are
// bounded by lineMax, frames by maxArgs/maxBulk/maxRequest — each checked
// on the header that breaks it, so an illegal frame is refused before its
// body is buffered.
func (q *request) parse(buf []byte, lineMax int) (int, error) {
	q.args = q.args[:0]
	pos := blanks(buf)
	line, n, err := cutLine(buf[pos:], lineMax)
	if n == 0 {
		return 0, err
	}
	pos += n
	if line[0] != '*' {
		return pos, q.splitInline(line)
	}
	argc, ok := parseInt(line[1:])
	if !ok || argc < 1 || argc > maxArgs {
		return 0, protoErrorf("invalid multibulk count %q", line[1:])
	}
	total := int64(0)
	for ; argc > 0; argc-- {
		line, n, err := cutLine(buf[pos:], lineMax)
		if n == 0 {
			return 0, err
		}
		if len(line) == 0 || line[0] != '$' {
			return 0, protoErrorf("expected bulk string, got %q", line)
		}
		blen, ok := parseInt(line[1:])
		if !ok || blen < 0 || blen > maxBulk {
			return 0, protoErrorf("invalid bulk length %q", line[1:])
		}
		if total += blen; total > maxRequest {
			return 0, protoErrorf("request exceeds %d bytes", maxRequest)
		}
		pos += n
		end := pos + int(blen)
		// The body's terminator: \r\n, tolerating a bare \n.
		if end < len(buf) && buf[end] == '\r' {
			end++
		}
		if end >= len(buf) {
			return 0, nil
		}
		if buf[end] != '\n' {
			return 0, protoErrorf("bulk string of %d bytes not followed by CRLF", blen)
		}
		q.args = append(q.args, buf[pos:pos+int(blen)])
		pos = end + 1
	}
	return pos, nil
}

// splitInline splits a space-separated command line into views of the line.
func (q *request) splitInline(line []byte) error {
	for i := 0; i < len(line); {
		if line[i] == ' ' {
			i++
			continue
		}
		j := i
		for j < len(line) && line[j] != ' ' {
			j++
		}
		if len(q.args) >= maxArgs {
			return protoErrorf("more than %d arguments", maxArgs)
		}
		q.args = append(q.args, line[i:j])
		i = j
	}
	return nil
}

// parseInt parses a decimal integer with an optional leading minus,
// rejecting empty and malformed input.
func parseInt(b []byte) (int64, bool) {
	neg := false
	if len(b) > 0 && b[0] == '-' {
		neg = true
		b = b[1:]
	}
	if len(b) == 0 || len(b) > 19 {
		return 0, false
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// parseUint parses an unsigned decimal (the bench client's key/value
// encoding).
func parseUint(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 20 {
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

// Reply builders append to the connection's out buffer, which goes to the
// socket in one Write per batch.

var crlf = []byte("\r\n")

func appendStatus(dst []byte, s string) []byte {
	dst = append(dst, '+')
	dst = append(dst, s...)
	return append(dst, crlf...)
}

func appendError(dst []byte, msg string) []byte {
	dst = append(dst, '-')
	dst = append(dst, msg...)
	return append(dst, crlf...)
}

func appendInt(dst []byte, n int64) []byte {
	dst = append(dst, ':')
	dst = strconv.AppendInt(dst, n, 10)
	return append(dst, crlf...)
}

func appendBulk(dst []byte, s string) []byte {
	dst = append(dst, '$')
	dst = strconv.AppendInt(dst, int64(len(s)), 10)
	dst = append(dst, crlf...)
	dst = append(dst, s...)
	return append(dst, crlf...)
}

func appendNilBulk(dst []byte) []byte {
	return append(dst, "$-1\r\n"...)
}

func appendArrayHeader(dst []byte, n int) []byte {
	dst = append(dst, '*')
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, crlf...)
}
