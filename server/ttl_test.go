package server

import (
	"fmt"
	"io"
	"net"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/optik-go/optik/store"
)

// startTTLServer brings up a server — over a hash store, or an ordered
// one — driven by an injected clock, so the wire-level expiry tests
// advance time by hand — no sleeps.
func startTTLServer(t *testing.T, ordered bool) (*atomic.Int64, string) {
	t.Helper()
	var clock atomic.Int64
	clock.Store(1_000_000_000)
	opts := []store.Option{
		store.WithClock(clock.Load),
		store.WithShards(2),
		store.WithShardBuckets(64),
		store.WithKeyMax(1 << 20),
	}
	var st *store.Strings
	var srv *Server
	if ordered {
		sorted := store.NewSortedStrings(opts...)
		st, srv = &sorted.Strings, NewOrdered(sorted)
	} else {
		st = store.NewStrings(opts...)
		srv = New(st)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		srv.Close()
		st.Close()
	})
	return &clock, addr.String()
}

// ttlServers are the two servers the expiry family runs on — one string
// layer under both, so one transcript serves both. keys rewrites a
// transcript for the server's key codec.
var ttlServers = []struct {
	name    string
	ordered bool
	keys    func(send string) string
}{
	{"hash", false, func(send string) string { return send }},
	{"ordered", true, decimalKeys},
}

// decimalKeys rewrites every command's key (its first argument) to a
// decimal one — the only kind an ordered server takes — derived from the
// name, so a name means the same key in every send of a session.
func decimalKeys(send string) string {
	lines := strings.Split(send, "\r\n")
	for i, line := range lines {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		f[1] = fmt.Sprint(1 + store.HashKey(f[1])%(1<<20-1))
		lines[i] = strings.Join(f, " ")
	}
	return strings.Join(lines, "\r\n")
}

// TestServerTTLTranscript pins the exact bytes of an expiry session: the
// TTL family's replies before and after the (injected) clock passes the
// deadlines — on the hash server and, byte for byte, on the ordered one.
func TestServerTTLTranscript(t *testing.T) {
	for _, srv := range ttlServers {
		t.Run(srv.name, func(t *testing.T) { testServerTTLTranscript(t, srv.ordered, srv.keys) })
	}
}

func testServerTTLTranscript(t *testing.T, ordered bool, keys func(string) string) {
	clock, addr := startTTLServer(t, ordered)
	conn, r := dialRaw(t, addr)

	send := "SETEX s 1 ephemeral\r\nSET k v\r\nTTL k\r\nEXPIRE k 100\r\nTTL k\r\n" +
		"PERSIST k\r\nTTL k\r\nTTL missing\r\nEXPIRE missing 5\r\nPERSIST k\r\n"
	want := ":0\r\n:0\r\n:-1\r\n:1\r\n:100\r\n" +
		":1\r\n:-1\r\n:-2\r\n:0\r\n:0\r\n"
	if _, err := conn.Write([]byte(keys(send))); err != nil {
		t.Fatalf("write: %v", err)
	}
	if got := readN(t, r, len(want)); got != want {
		t.Fatalf("transcript mismatch:\n got %q\nwant %q", got, want)
	}

	// Two simulated seconds later: the SETEX key is gone, the persisted
	// key survives, and a SETEX over the expired entry is a fresh insert.
	clock.Add(2_000_000_000)
	send = "GET s\r\nGET k\r\nSETEX s 1 back\r\nGET s\r\nEXPIRE k -1\r\nGET k\r\n"
	want = "$-1\r\n$1\r\nv\r\n:0\r\n$4\r\nback\r\n:1\r\n$-1\r\n"
	if _, err := conn.Write([]byte(keys(send))); err != nil {
		t.Fatalf("write: %v", err)
	}
	if got := readN(t, r, len(want)); got != want {
		t.Fatalf("post-expiry transcript mismatch:\n got %q\nwant %q", got, want)
	}
}

// TestServerTTLBarriersWithPipeline pins arrival-order semantics: TTL
// commands are barriers, so a pipelined coalesced run ahead of them
// answers first and their effects apply to the already-staged writes.
func TestServerTTLBarriersWithPipeline(t *testing.T) {
	_, addr := startTTLServer(t, false)
	conn, r := dialRaw(t, addr)

	send := "SET a 1\r\nSET b 2\r\nEXPIRE a 50\r\nMGET a b\r\nTTL a\r\nTTL b\r\n"
	want := ":0\r\n:0\r\n:1\r\n*2\r\n$1\r\n1\r\n$1\r\n2\r\n:50\r\n:-1\r\n"
	if _, err := conn.Write([]byte(send)); err != nil {
		t.Fatalf("write: %v", err)
	}
	if got := readN(t, r, len(want)); got != want {
		t.Fatalf("barrier transcript mismatch:\n got %q\nwant %q", got, want)
	}
}

// TestServerTTLSoftErrors covers the expiry family's soft errors: bad
// seconds (non-numeric, overflow, SETEX non-positive), wrong arity. The
// connection survives every one.
func TestServerTTLSoftErrors(t *testing.T) {
	_, addr := startTTLServer(t, false)
	conn, r := dialRaw(t, addr)

	cases := []struct{ send, wantPrefix string }{
		{"EXPIRE k abc\r\n", "-ERR value is not an integer"},
		{"EXPIRE k 99999999999999999999\r\n", "-ERR value is not an integer"},
		{"SETEX k 0 v\r\n", "-ERR invalid expire time"},
		{"SETEX k -5 v\r\n", "-ERR invalid expire time"},
		{"SETEX k nope v\r\n", "-ERR value is not an integer"},
		{"EXPIRE k\r\n", "-ERR wrong number of arguments for 'expire'"},
		{"SETEX k 5\r\n", "-ERR wrong number of arguments for 'setex'"},
		{"TTL\r\n", "-ERR wrong number of arguments for 'ttl'"},
		{"PERSIST a b\r\n", "-ERR wrong number of arguments for 'persist'"},
	}
	for _, c := range cases {
		if _, err := conn.Write([]byte(c.send)); err != nil {
			t.Fatalf("write: %v", err)
		}
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("%q: read: %v", c.send, err)
		}
		if !strings.HasPrefix(line, c.wantPrefix) {
			t.Fatalf("%q: got %q, want prefix %q", c.send, line, c.wantPrefix)
		}
	}
	conn.Write([]byte("PING\r\n"))
	if line, _ := r.ReadString('\n'); line != "+PONG\r\n" {
		t.Fatalf("connection dead after soft errors: %q", line)
	}
}

// statsFieldNames sends STATS down a raw connection and returns the reply's
// field names in reply order — the one thing Client.Stats' map cannot tell.
func statsFieldNames(t *testing.T, addr string) []string {
	t.Helper()
	conn, r := dialRaw(t, addr)
	conn.Write([]byte("STATS\r\n"))
	head, err := r.ReadString('\n')
	n, convErr := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(head, "$")))
	if err != nil || convErr != nil {
		t.Fatalf("STATS answered %q, %v", head, err)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSuffix(readN(t, r, n+2), "\n\r\n"), "\n") {
		name, _, ok := strings.Cut(line, ":")
		if !ok {
			t.Fatalf("STATS line %q is not name:value", line)
		}
		names = append(names, name)
	}
	return names
}

// documentedStatsFields parses the backticked field list out of
// docs/PROTOCOL.md: the paragraph that opens "`STATS` fields (…):".
func documentedStatsFields(t *testing.T) []string {
	t.Helper()
	doc, err := os.ReadFile("../docs/PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), "\n`STATS` fields (")
	if !ok {
		t.Fatal("docs/PROTOCOL.md has no \"`STATS` fields (\" paragraph")
	}
	para, _, _ := strings.Cut(rest, "\n\n")
	_, list, _ := strings.Cut(para, ":")
	var fields []string
	for _, m := range regexp.MustCompile("`([a-z_]+)`").FindAllStringSubmatch(list, -1) {
		fields = append(fields, m[1])
	}
	return fields
}

// TestServerStatsFields holds docs/PROTOCOL.md's STATS field list and the
// live reply to each other: the same names in the same order on the hash
// server, and on the ordered one the same plus its ordered:1 discriminator.
// A field added to the reply and not the document, or the other way round,
// fails here.
func TestServerStatsFields(t *testing.T) {
	documented := documentedStatsFields(t)
	if len(documented) < 20 {
		t.Fatalf("parsed only %d fields out of docs/PROTOCOL.md: %v", len(documented), documented)
	}
	for _, srv := range ttlServers {
		t.Run(srv.name, func(t *testing.T) {
			_, addr := startTTLServer(t, srv.ordered)
			var live []string
			ordered := 0
			for _, name := range statsFieldNames(t, addr) {
				if name == "ordered" {
					ordered++
					continue
				}
				live = append(live, name)
			}
			if !slices.Equal(live, documented) {
				t.Errorf("STATS fields and docs/PROTOCOL.md disagree:\n live:       %v\n documented: %v", live, documented)
			}
			if want := int(b2i(srv.ordered)); ordered != want {
				t.Errorf("STATS carries %d ordered lines, want %d", ordered, want)
			}
		})
	}
}

// TestServerGetHitsMisses pins what get_hits and get_misses count: keys that
// GET and MGET found and did not find — keys, not commands — whether they
// came in one MGET frame, as a pipelined run the server coalesces, or one by
// one, and nothing else (a SET's replaced flag, a DEL of an absent key). A
// connection settles its batch before it reads the next request, so the one
// Client — one connection — that did the GETs reads them accounted.
func TestServerGetHitsMisses(t *testing.T) {
	for _, srv := range ttlServers {
		t.Run(srv.name, func(t *testing.T) {
			_, addr := startTTLServer(t, srv.ordered)
			c, err := Dial(addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer c.Close()
			c.Set(1, 10)
			c.Set(2, 20)
			c.Set(1, 30)
			c.Del(9)
			if st := c.Stats(); st["get_hits"] != 0 || st["get_misses"] != 0 {
				t.Fatalf("before any GET: get_hits=%d get_misses=%d", st["get_hits"], st["get_misses"])
			}
			vals, found := make([]uint64, 3), make([]bool, 3)
			c.SetMultibulk(true)
			c.MGet([]uint64{1, 2, 3}, vals, found) // one frame: two present, one not
			c.SetMultibulk(false)
			c.MGet([]uint64{1, 4}, vals, found) // two pipelined GETs
			c.Get(2)
			if st := c.Stats(); st["get_hits"] != 4 || st["get_misses"] != 2 {
				t.Fatalf("get_hits=%d get_misses=%d, want 4 and 2", st["get_hits"], st["get_misses"])
			}
		})
	}
}

// TestServerTTLStatsCounters drives lazy expiry over the wire and checks
// the governance counters move, on both servers.
func TestServerTTLStatsCounters(t *testing.T) {
	for _, srv := range ttlServers {
		t.Run(srv.name, func(t *testing.T) { testServerTTLStatsCounters(t, srv.ordered, srv.keys) })
	}
}

func testServerTTLStatsCounters(t *testing.T, ordered bool, keys func(string) string) {
	clock, addr := startTTLServer(t, ordered)
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	conn, r := dialRaw(t, addr)
	conn.Write([]byte(keys("SETEX gone 1 xx\r\nSET stay 1 \r\n")))
	readN(t, r, len(":0\r\n:0\r\n"))
	st := c.Stats()
	if st["bytes_used"] <= 0 {
		t.Fatalf("bytes_used = %d, want > 0", st["bytes_used"])
	}
	clock.Add(2_000_000_000)
	conn.Write([]byte(keys("GET gone\r\n")))
	readN(t, r, len("$-1\r\n"))
	st = c.Stats()
	if st["expired_lazy"] == 0 {
		t.Fatal("expired_lazy did not move after lazy-expired GET")
	}
	if st["len"] != 1 {
		t.Fatalf("len = %d, want 1", st["len"])
	}
}

// TestTTLSeedsOnBothServers replays the fuzz corpus's expiry seeds — bad
// seconds, arity errors, truncated frames — as whole connections against
// both servers (the ordered one additionally with its inline keys made
// decimal, so the commands reach the store instead of stopping at the key
// codec). Whatever each seed draws, the connection must end cleanly and
// the server must still answer afterwards.
func TestTTLSeedsOnBothServers(t *testing.T) {
	for _, srv := range ttlServers {
		t.Run(srv.name, func(t *testing.T) {
			_, addr := startTTLServer(t, srv.ordered)
			sends := ttlSeeds
			if srv.ordered {
				for _, seed := range ttlSeeds {
					sends = append(sends, []byte(srv.keys(string(seed))))
				}
			}
			for _, send := range sends {
				conn, r := dialRaw(t, addr)
				if _, err := conn.Write(send); err != nil {
					t.Fatalf("%q: write: %v", send, err)
				}
				conn.(*net.TCPConn).CloseWrite()
				if _, err := io.ReadAll(r); err != nil {
					t.Fatalf("%q: connection did not end cleanly: %v", send, err)
				}
				conn.Close()
			}
			conn, r := dialRaw(t, addr)
			conn.Write([]byte("PING\r\n"))
			if line, _ := r.ReadString('\n'); line != "+PONG\r\n" {
				t.Fatalf("server dead after the seeds: %q", line)
			}
		})
	}
}
