package server

import (
	"fmt"
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

// parseSeeds are transcripts from the protocol tests: inline and multibulk
// framing, pipelining, blank-line tolerance, and each malformed-frame class.
var parseSeeds = append([][]byte{
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
	[]byte("*1\r\n$4\nPING\n\r\n\rPING\r\n"),
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
	[]byte("PING\r\nGET " + "kkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkk"),
}, ttlSeeds...)

// fuzzLineMax is the line bound the parser tests run under: far below the
// server's floor, so short inputs reach the line-too-long class too.
const fuzzLineMax = 64

// parseStream runs the parser over data the way a connection does — one
// reused request, each call handed what the previous ones left — until it
// needs more bytes or fails, and checks its contract on the way: it never
// panics, it only ever fails with a *protoError (fatal framing violation),
// it consumes whole frames from inside the buffer, and every request it
// accepts respects the protocol limits. It returns each request's
// arguments and end offset, and the error text ("" for need-more).
func parseStream(t *testing.T, data []byte) (reqs [][]string, ends []int, errText string) {
	t.Helper()
	var q request
	pos := 0
	// A stream of len(data) bytes holds at most len(data)/2 frames (the
	// shortest is "a\n"); the bound only guards against a parser that stops
	// consuming input.
	for range len(data) + 1 {
		n, err := q.parse(data[pos:], fuzzLineMax)
		if err != nil {
			pe, ok := err.(*protoError)
			if !ok {
				t.Fatalf("unexpected error class %T: %v", err, err)
			}
			if pe.Error() == "" {
				t.Fatalf("empty protocol error message")
			}
			return reqs, ends, pe.Error()
		}
		if n == 0 {
			return reqs, ends, ""
		}
		if n < 0 || n > len(data)-pos {
			t.Fatalf("consumed %d of %d buffered bytes", n, len(data)-pos)
		}
		pos += n
		// Zero args is legal: a whitespace-only inline line parses as an
		// empty request, which dispatch treats as a no-op.
		if len(q.args) > maxArgs {
			t.Fatalf("accepted %d args, limit %d", len(q.args), maxArgs)
		}
		total := 0
		args := make([]string, len(q.args))
		for i, a := range q.args {
			if len(a) > maxBulk {
				t.Fatalf("accepted %d-byte argument, limit %d", len(a), maxBulk)
			}
			total += len(a)
			args[i] = string(a)
		}
		if total > maxRequest {
			t.Fatalf("accepted %d-byte request, limit %d", total, maxRequest)
		}
		reqs = append(reqs, args)
		ends = append(ends, pos)
	}
	t.Fatalf("parser did not consume the stream in %d requests", len(data)+1)
	return
}

// checkPrefixSafety is the property a resumable parser lives by: cut the
// stream anywhere and the parser, shown only the prefix, yields exactly the
// whole stream's requests that end inside it — same arguments, same
// offsets, never a partial frame — and then either asks for more or
// reports the very error the whole stream ends in. It never invents an
// error that more bytes would have averted.
func checkPrefixSafety(t *testing.T, data []byte) {
	t.Helper()
	reqs, ends, errText := parseStream(t, data)
	for cut := 0; cut < len(data); cut++ {
		preqs, pends, perr := parseStream(t, data[:cut])
		whole := 0
		for whole < len(ends) && ends[whole] <= cut {
			whole++
		}
		got, want := fmt.Sprintf("%q ending %v", preqs, pends), fmt.Sprintf("%q ending %v", reqs[:whole], ends[:whole])
		if got != want {
			t.Fatalf("%q cut at %d: parsed %s, the whole stream has %s there", data, cut, got, want)
		}
		if perr != "" && (perr != errText || whole != len(reqs)) {
			t.Fatalf("%q cut at %d: error %q after %d requests, the whole stream gives %q after %d",
				data, cut, perr, whole, errText, len(reqs))
		}
	}
}

// TestParsePrefixSafety runs the property over the seed corpus.
func TestParsePrefixSafety(t *testing.T) {
	for _, seed := range parseSeeds {
		checkPrefixSafety(t, seed)
	}
}

// FuzzParseRequest drives the wire parser with arbitrary byte streams, as
// one buffer and cut at every offset, under parseStream's contract checks
// and the prefix-safety property.
func FuzzParseRequest(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPrefixSafety(t, data)
	})
}
