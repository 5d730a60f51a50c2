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
func startTTLServer(t *testing.T, ordered bool, extra ...store.Option) (*atomic.Int64, string) {
	t.Helper()
	var clock atomic.Int64
	clock.Store(1_000_000_000)
	opts := append([]store.Option{
		store.WithClock(clock.Load),
		store.WithShardBuckets(64),
	}, extra...)
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

// TestServerTTLBarriersInPipeline pins arrival-order semantics: TTL
// commands pipelined among writes and reads answer in order, and their
// effects apply to the writes ahead of them.
func TestServerTTLBarriersInPipeline(t *testing.T) {
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

// protocolDoc returns docs/PROTOCOL.md.
func protocolDoc(t *testing.T) string {
	t.Helper()
	doc, err := os.ReadFile("../docs/PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	return string(doc)
}

// documentedStatsFields parses the backticked field list out of
// docs/PROTOCOL.md: the paragraph that opens "`STATS` fields (…):".
func documentedStatsFields(t *testing.T) []string {
	t.Helper()
	_, rest, ok := strings.Cut(protocolDoc(t), "\n`STATS` fields (")
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
// fails here, and so does a field the document lists as removed;
// writes_elided must count exactly the SETs that restated a value;
// evicted_warm must count a victim the budget took while every resident
// was in use; and evicted_new must count a fresh key its own SET evicted.
func TestServerStatsFields(t *testing.T) {
	const entry = store.PairOverhead + 2 // a two-digit value
	removed := []string{"values_allocated", "values_free", "poller", "nodes_retired", "nodes_reclaimed", "nodes_reused", "coalesced_batches", "coalesced_keys", "shards", "conns_shed"}
	documented := documentedStatsFields(t)
	if len(documented) < 15 {
		t.Fatalf("parsed only %d fields out of docs/PROTOCOL.md: %v", len(documented), documented)
	}
	for _, srv := range ttlServers {
		t.Run(srv.name, func(t *testing.T) {
			_, addr := startTTLServer(t, srv.ordered, store.WithByteBudget(5*entry))
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
			for _, name := range removed {
				if slices.Contains(live, name) {
					t.Errorf("STATS carries %s, which docs/PROTOCOL.md lists as removed", name)
				}
			}
			if want := int(b2i(srv.ordered)); ordered != want {
				t.Errorf("STATS carries %d ordered lines, want %d", ordered, want)
			}
			// writes_elided counts the SETs that restated their key's value
			// and stored nothing: the second and the fourth.
			c, err := Dial(addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer c.Close()
			c.Set(1, 10)
			c.Set(1, 10)
			c.Set(1, 20)
			c.Set(1, 20)
			if got := c.Stats()["writes_elided"]; got != 2 {
				t.Errorf("writes_elided = %d after two restating SETs, want 2", got)
			}
			// Five entries fill the budget; each is read twice, so all are
			// warm, and an overwrite that takes the store past the budget
			// is not a fresh key and holds no duel: its round razes, and
			// with every resident in use it evicts one warm victim.
			keys := []uint64{1, 11, 12, 13, 14}
			for _, k := range keys[1:] {
				c.Set(k, 10)
			}
			for range 2 {
				c.Quiesce()
				for _, k := range keys {
					c.Get(k)
				}
			}
			if st := c.Stats(); st["evicted"] != 0 || st["evicted_warm"] != 0 {
				t.Fatalf("evicted %d (%d warm) under the budget, want none", st["evicted"], st["evicted_warm"])
			}
			c.Set(11, 1000)
			c.Quiesce()
			if st := c.Stats(); st["evicted"] != 1 || st["evicted_warm"] != 1 || st["evicted_new"] != 0 {
				t.Errorf("evicted %d (%d warm, %d new) with every resident in use, want 1 (1, 0)", st["evicted"], st["evicted_warm"], st["evicted_new"])
			}
			// A fresh key nobody has read loses its duel with the residents,
			// read twice each: its own SET evicts it. Its value is the long
			// one, so the SET takes the store past the budget whichever
			// resident was the victim above.
			c.Set(15, 1000)
			if _, ok := c.Get(15); ok {
				t.Error("an unread fresh key was admitted over residents read twice")
			}
			if st := c.Stats(); st["evicted"] != 2 || st["evicted_new"] != 1 {
				t.Errorf("evicted %d (%d new) after an unread fresh SET, want 2 (1)", st["evicted"], st["evicted_new"])
			}
		})
	}
}

// TestServerTurnsAwayAnOversizeValue pins the byte budget's limit on the
// wire, on both servers: with fifty 200-byte entries filling a 10,000-byte
// budget exactly, a SET of a 20,000-byte value replies :0, as a fresh
// insert does, but is never stored. A GET of its key misses and LEN is
// unchanged, even after QUIESCE has run a full eviction pass.
func TestServerTurnsAwayAnOversizeValue(t *testing.T) {
	const entry, keep, budget = 200, 50, 10_000
	for _, srv := range ttlServers {
		t.Run(srv.name, func(t *testing.T) {
			_, addr := startTTLServer(t, srv.ordered, store.WithByteBudget(budget))
			conn, r := dialRaw(t, addr)
			var send, want strings.Builder
			val := strings.Repeat("v", entry-store.PairOverhead)
			for i := 1; i <= keep; i++ {
				fmt.Fprintf(&send, "SET %d %s\r\n", i, val)
				want.WriteString(":0\r\n")
			}
			big := strings.Repeat("b", 2*budget)
			fmt.Fprintf(&send, "LEN\r\n*3\r\n$3\r\nSET\r\n$4\r\n9999\r\n$%d\r\n%s\r\nQUIESCE\r\nGET 9999\r\nLEN\r\n", len(big), big)
			fmt.Fprintf(&want, ":%d\r\n:0\r\n+OK\r\n$-1\r\n:%d\r\n", keep, keep)
			if _, err := conn.Write([]byte(send.String())); err != nil {
				t.Fatalf("write: %v", err)
			}
			if got := readN(t, r, want.Len()); got != want.String() {
				t.Fatalf("transcript mismatch:\n got %q\nwant %q", got, want.String())
			}
		})
	}
}

// documentedCommands returns the command word of every row of the
// docs/PROTOCOL.md table under heading, in table order.
func documentedCommands(t *testing.T, heading string) []string {
	t.Helper()
	_, rest, ok := strings.Cut(protocolDoc(t), "\n"+heading+"\n")
	if !ok {
		t.Fatalf("docs/PROTOCOL.md has no %q heading", heading)
	}
	section, _, _ := strings.Cut(rest, "\n#")
	var cmds []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([A-Z]+)").FindAllStringSubmatch(section, -1) {
		cmds = append(cmds, m[1])
	}
	return cmds
}

// TestProtocolCommandTables holds docs/PROTOCOL.md's two command tables and
// the dispatcher to each other: the commands the tables document are
// exactly the cmdEq(cmd, …) names in server.go, and each documented command,
// sent with no arguments to the server whose table lists it, draws
// something other than "unknown command". A command added to or deleted
// from either side alone fails here.
func TestProtocolCommandTables(t *testing.T) {
	hashCmds := documentedCommands(t, "## Commands")
	orderedCmds := documentedCommands(t, "### Ordered commands")
	src, err := os.ReadFile("server.go")
	if err != nil {
		t.Fatal(err)
	}
	var dispatched []string
	for _, m := range regexp.MustCompile(`cmdEq\(cmd, "([A-Z]+)"\)`).FindAllStringSubmatch(string(src), -1) {
		dispatched = append(dispatched, m[1])
	}
	documented := slices.Concat(hashCmds, orderedCmds)
	slices.Sort(documented)
	slices.Sort(dispatched)
	if dispatched = slices.Compact(dispatched); !slices.Equal(documented, dispatched) {
		t.Errorf("docs/PROTOCOL.md's command tables and server.go's dispatcher disagree:\n documented: %v\n dispatched: %v", documented, dispatched)
	}

	for _, srv := range []struct {
		ordered bool
		cmds    []string
	}{{false, hashCmds}, {true, orderedCmds}} {
		_, addr := startTTLServer(t, srv.ordered)
		conn, r := dialRaw(t, addr)
		var send strings.Builder
		for _, cmd := range srv.cmds {
			if cmd != "QUIT" {
				send.WriteString(cmd + "\r\n")
			}
		}
		send.WriteString("QUIT\r\n")
		if _, err := conn.Write([]byte(send.String())); err != nil {
			t.Fatalf("write: %v", err)
		}
		replies, err := io.ReadAll(r)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if strings.Contains(string(replies), "unknown command") || !strings.HasSuffix(string(replies), "+OK\r\n") {
			t.Errorf("ordered=%v: %q drew %q", srv.ordered, send.String(), replies)
		}
	}
}

// TestServerGetHitsMisses pins what get_hits and get_misses count: keys that
// GET and MGET found and did not find — keys, not commands — whether they
// came in one MGET frame, as pipelined GETs, or one by one, and nothing
// else (a SET's replaced flag, a DEL of an absent key). A connection
// settles its batch before it reads the next request, so the one Client —
// one connection — that did the GETs reads them accounted.
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
