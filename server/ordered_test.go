package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"

	"github.com/optik-go/optik/store"
)

// startOrdered boots an ordered loopback server and a client for it.
func startOrdered(t *testing.T, opts ...Option) (*store.SortedStrings, *Client) {
	t.Helper()
	st := store.NewSortedStrings(store.WithShards(4), store.WithKeyMax(1<<20))
	srv := NewOrdered(st, opts...)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() {
		c.Close()
		srv.Close()
		st.Close()
	})
	return st, c
}

func TestOrderedServerPointOps(t *testing.T) {
	_, c := startOrdered(t)
	if _, replaced := c.Set(100, 1); replaced {
		t.Fatal("fresh SET replaced")
	}
	if _, replaced := c.Set(100, 2); !replaced {
		t.Fatal("second SET did not replace")
	}
	if v, ok := c.Get(100); !ok || v != 2 {
		t.Fatalf("GET = %d,%v", v, ok)
	}
	if _, ok := c.Del(100); !ok {
		t.Fatal("DEL missed")
	}
	if c.Len() != 0 {
		t.Fatalf("LEN = %d", c.Len())
	}
	// Batched surface rides the coalescer exactly as on the hash server.
	keys := []uint64{5, 3, 9, 7}
	vals := []uint64{50, 30, 90, 70}
	if ins := c.MSet(keys, vals); ins != 4 {
		t.Fatalf("MSet inserted %d", ins)
	}
	got := make([]uint64, 4)
	found := make([]bool, 4)
	c.MGet(keys, got, found)
	for i := range keys {
		if !found[i] || got[i] != vals[i] {
			t.Fatalf("MGet[%d] = %d,%v", keys[i], got[i], found[i])
		}
	}
}

func TestOrderedServerRangeFamily(t *testing.T) {
	_, c := startOrdered(t)
	for k := uint64(10); k <= 200; k += 10 {
		c.Set(k, k*3)
	}

	keys := make([]uint64, 32)
	vals := make([]uint64, 32)
	n := c.Range(35, 95, keys, vals)
	want := []uint64{40, 50, 60, 70, 80, 90}
	if n != len(want) {
		t.Fatalf("RANGE = %d entries, want %d", n, len(want))
	}
	for i, k := range want {
		if keys[i] != k || vals[i] != k*3 {
			t.Fatalf("entry %d = %d/%d", i, keys[i], vals[i])
		}
	}
	// LIMIT caps the page.
	if n := c.Range(10, 200, keys[:4], vals[:4]); n != 4 || keys[3] != 40 {
		t.Fatalf("limited RANGE = %d (keys[3]=%d)", n, keys[3])
	}
	// Endpoints.
	if k, v, ok := c.Min(); !ok || k != 10 || v != "30" {
		t.Fatalf("MIN = %d/%q/%v", k, v, ok)
	}
	if k, v, ok := c.Max(); !ok || k != 200 || v != "600" {
		t.Fatalf("MAX = %d/%q/%v", k, v, ok)
	}
}

func TestOrderedServerScanCursor(t *testing.T) {
	_, c := startOrdered(t)
	const total = 137
	for i := uint64(1); i <= total; i++ {
		c.Set(i*7, i)
	}
	// Page through with COUNT 10: every key exactly once, ascending.
	var all []uint64
	cursor := uint64(0)
	pages := 0
	for {
		next, keys, _ := c.Scan(cursor, "", 10)
		if len(keys) > 10 {
			t.Fatalf("page of %d exceeds COUNT", len(keys))
		}
		all = append(all, keys...)
		pages++
		if next == 0 {
			break
		}
		if next != keys[len(keys)-1]+1 {
			t.Fatalf("cursor %d is not a resumption key (last %d)", next, keys[len(keys)-1])
		}
		cursor = next
	}
	if len(all) != total {
		t.Fatalf("scan saw %d keys, want %d (pages %d)", len(all), total, pages)
	}
	for i := range all {
		if all[i] != uint64(i+1)*7 {
			t.Fatalf("scan[%d] = %d, want %d", i, all[i], (i+1)*7)
		}
	}
	// ScanAll convenience equals the manual loop.
	keys, vals := c.ScanAll("", 25)
	if len(keys) != total || len(vals) != total {
		t.Fatalf("ScanAll = %d/%d entries", len(keys), len(vals))
	}
}

func TestOrderedServerScanPrefix(t *testing.T) {
	_, c := startOrdered(t)
	for _, k := range []uint64{1, 12, 123, 1234, 13, 2, 21, 120} {
		c.Set(k, k)
	}
	// PREFIX 12 matches decimal representations starting "12".
	keys, _ := c.ScanAll("12", 3)
	want := []uint64{12, 120, 123, 1234}
	if len(keys) != len(want) {
		t.Fatalf("PREFIX 12 = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("PREFIX order: %v, want %v", keys, want)
		}
	}
	// PREFIX 2 must not catch 12, 120, ...
	keys, _ = c.ScanAll("2", 0)
	if len(keys) != 2 || keys[0] != 2 || keys[1] != 21 {
		t.Fatalf("PREFIX 2 = %v", keys)
	}
	// A PREFIX above the key ceiling matches no representable key: an
	// empty page with cursor 0, not the full-range default.
	next, keys, vals := c.Scan(0, "18446744073709551615", 0)
	if next != 0 || len(keys) != 0 || len(vals) != 0 {
		t.Fatalf("overflow PREFIX = cursor %d, %d keys, want empty", next, len(keys))
	}
}

// TestOrderedServerInvalidKey pins the soft-error contract: a
// non-decimal key answers -ERR for that request only, in arrival order,
// with the connection and any staged run intact.
func TestOrderedServerInvalidKey(t *testing.T) {
	_, c := startOrdered(t)
	c.Set(5, 55)

	// Raw pipeline: valid GET, invalid GET, valid GET — three replies in
	// order, the middle one an error.
	fmt.Fprintf(c.w, "GET 5\r\nGET abc\r\nGET 5\r\n")
	c.w.Flush()
	if v, ok := c.readValue(); !ok || v != 55 {
		t.Fatalf("first GET = %d,%v", v, ok)
	}
	line, err := readLine(c.r)
	if err != nil || len(line) == 0 || line[0] != '-' {
		t.Fatalf("invalid key reply = %q, %v", line, err)
	}
	if !strings.Contains(string(line), "invalid key") {
		t.Fatalf("error text %q", line)
	}
	if v, ok := c.readValue(); !ok || v != 55 {
		t.Fatalf("third GET = %d,%v (connection broken by soft error?)", v, ok)
	}
	// The connection keeps working through the client helpers too.
	if !c.Ping() {
		t.Fatal("PING after soft error failed")
	}
}

// TestOrderedCommandsOnHashServer pins the other side of the gate: a
// hash-backed server answers the ordered family with an error, not a
// hang or a crash.
func TestOrderedCommandsOnHashServer(t *testing.T) {
	st := store.NewStrings(store.WithShards(2))
	srv := New(st)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer func() { srv.Close(); st.Close() }()
	nc, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	fmt.Fprintf(nc, "MIN\r\nPING\r\n")
	br := bufio.NewReader(nc)
	line, _ := readLine(br)
	if len(line) == 0 || line[0] != '-' {
		t.Fatalf("MIN on hash server = %q, want error", line)
	}
	line, _ = readLine(br)
	if string(line) != "+PONG" {
		t.Fatalf("connection unusable after ordered-command error: %q", line)
	}
}

func TestOrderedServerStats(t *testing.T) {
	_, c := startOrdered(t)
	c.Set(1, 1)
	c.Set(2, 2)
	st := c.Stats()
	if st["ordered"] != 1 {
		t.Fatal("STATS missing ordered:1 discriminator")
	}
	if st["len"] != 2 {
		t.Fatalf("STATS len = %d", st["len"])
	}
}
