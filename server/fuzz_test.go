package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
)

// ttlSeeds is the expiry family's corner of the fuzz corpus: inline and
// multibulk framing, bad seconds (negative, overflow, non-numeric), arity
// errors, truncations. FuzzParseRequest seeds the parser with them, and
// TestTTLSeedsOnBothServers replays them through the dispatcher of a hash
// and of an ordered server.
var ttlSeeds = [][]byte{
	[]byte("EXPIRE user:1 60\r\n"),
	[]byte("SETEX user:1 60 alice\r\n"),
	[]byte("TTL user:1\r\n"),
	[]byte("PERSIST user:1\r\n"),
	[]byte("EXPIRE user:1 -1\r\n"),
	[]byte("EXPIRE user:1 99999999999999999999\r\n"),
	[]byte("SETEX user:1 abc alice\r\n"),
	[]byte("SETEX user:1 0 alice\r\nTTL user:1\r\n"),
	[]byte("EXPIRE user:1\r\n"),
	[]byte("*3\r\n$6\r\nEXPIRE\r\n$6\r\nuser:1\r\n$2\r\n60\r\n"),
	[]byte("*4\r\n$5\r\nSETEX\r\n$6\r\nuser:1\r\n$2\r\n60\r\n$5\r\nalice\r\n"),
	[]byte("*2\r\n$3\r\nTTL\r\n$6\r\nuser:1\r\n*2\r\n$7\r\nPERSIST\r\n$6\r\nuser:1\r\n"),
	[]byte("*4\r\n$5\r\nSETEX\r\n$6\r\nuser:1\r\n$2\r\n60\r\n"),
	[]byte("*3\r\n$6\r\nEXPIRE\r\n$6\r\nuser:1\r\n$3\r\n-"),
}

// FuzzParseRequest drives the wire parser with arbitrary byte streams and
// checks its contract: it never panics, it only ever fails with io.EOF
// (clean close at a request boundary), io.ErrUnexpectedEOF (truncated
// frame), or a *protoError (fatal framing violation) — the soft-vs-fatal
// split serve() dispatches on — and every request it does accept respects
// the protocol limits. The request struct is reused across all requests
// of one stream, as a connection does, so slot-buffer reuse is fuzzed too.
func FuzzParseRequest(f *testing.F) {
	// Transcripts from the protocol tests: inline and multibulk framing,
	// pipelining, blank-line tolerance, and each malformed-frame class.
	seeds := [][]byte{
		[]byte("PING\r\n"),
		[]byte("GET user:1\r\n"),
		[]byte("SET user:1 alice\r\n"),
		[]byte("  GET   user:1  \r\n"),
		[]byte(" \n"),
		[]byte("\r\n\r\nPING\r\n"),
		[]byte("PING\nPING\n"),
		[]byte("*1\r\n$4\r\nPING\r\n"),
		[]byte("*3\r\n$3\r\nSET\r\n$6\r\nuser:1\r\n$5\r\nalice\r\n"),
		[]byte("*2\r\n$3\r\nGET\r\n$6\r\nuser:1\r\n*2\r\n$3\r\nDEL\r\n$6\r\nuser:1\r\n"),
		[]byte("*2\r\n$4\r\nMGET\r\n$0\r\n\r\n"),
		// Truncations and violations.
		[]byte("*3\r\n$3\r\nSET\r\n$6\r\nuser:1\r\n"),
		[]byte("*1\r\n$4\r\nPI"),
		[]byte("*0\r\n"),
		[]byte("*-1\r\n"),
		[]byte("*abc\r\n"),
		[]byte("*2\r\n:42\r\n$4\r\nPING\r\n"),
		[]byte("*1\r\n$-5\r\n"),
		[]byte("*1\r\n$9999999999999999999\r\n"),
		[]byte("*1\r\n$4\r\nPINGx\r\n"),
		[]byte("*1\r\n$4\r\nPING\rx"),
	}
	for _, s := range append(seeds, ttlSeeds...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		var q request
		// A stream of len(data) bytes holds at most len(data)/4+1 frames
		// (the shortest is "a\n" inline after a blank line); the bound only
		// guards against a parser that stops consuming input.
		for reqs := 0; reqs <= len(data); reqs++ {
			err := q.readFrom(r)
			if err != nil {
				var pe *protoError
				switch {
				case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
					// Clean close or truncated frame.
				case errors.As(err, &pe):
					if pe.Error() == "" {
						t.Fatalf("empty protocol error message")
					}
				default:
					t.Fatalf("unexpected error class %T: %v", err, err)
				}
				return
			}
			// Zero args is legal: a whitespace-only inline line parses as
			// an empty request, which dispatch treats as a no-op.
			if len(q.args) > maxArgs {
				t.Fatalf("accepted %d args, limit %d", len(q.args), maxArgs)
			}
			total := 0
			for _, a := range q.args {
				if len(a) > maxBulk {
					t.Fatalf("accepted %d-byte argument, limit %d", len(a), maxBulk)
				}
				total += len(a)
			}
			if total > maxRequest+maxBulk {
				t.Fatalf("accepted %d-byte request, limit %d", total, maxRequest)
			}
		}
		t.Fatalf("parser did not consume the stream in %d requests", len(data)+1)
	})
}
