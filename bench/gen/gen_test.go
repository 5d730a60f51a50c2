package gen

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"testing"
)

var (
	hashLoad = Workload{
		Name: "hash", Keys: 1 << 12, ValueLen: 64, Depth: 16,
		Pct:  [NumKinds]int{Get: 70, Set: 18, Del: 2, SetEX: 10},
		Dist: Zipf, Theta: 0.99, TTLSecs: 3600, PreloadPct: 80,
	}
	orderedLoad = Workload{
		Name: "ordered", Ordered: true, Keys: 1 << 12, ValueLen: 32, Depth: 16,
		Pct:  [NumKinds]int{Get: 60, Set: 8, Del: 2, Range: 30},
		Dist: Uniform, RangeLen: 10, PreloadPct: 80,
	}
)

func TestRingIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range []*Workload{&hashLoad, &orderedLoad} {
		a, b := BuildRing(w, 7, 0, 4096), BuildRing(w, 7, 0, 4096)
		if !bytes.Equal(a.buf, b.buf) || !slices.Equal(a.end, b.end) || !slices.Equal(a.Ops, b.Ops) {
			t.Errorf("%s: the same seed built two different rings", w.Name)
		}
		if c := BuildRing(w, 8, 0, 4096); bytes.Equal(a.buf, c.buf) {
			t.Errorf("%s: seeds 7 and 8 built the same ring", w.Name)
		}
		if c := BuildRing(w, 7, 1, 4096); bytes.Equal(a.buf, c.buf) {
			t.Errorf("%s: connections 0 and 1 got the same ring", w.Name)
		}
	}
}

// TestRingCarriesTheStream decodes the ring's bytes back into ops: what
// goes over the wire is, op for op, what NewStream hands the replay.
func TestRingCarriesTheStream(t *testing.T) {
	for _, w := range []*Workload{&hashLoad, &orderedLoad} {
		const n = 4096
		r := BuildRing(w, 3, 0, n)
		s := NewStream(w, 3, 0)
		for i := range n {
			want := s.Next()
			if r.Ops[i] != want {
				t.Fatalf("%s: ring op %d is %v, the stream's is %v", w.Name, i, r.Ops[i], want)
			}
			if got := decode(t, w, r.Bytes(i, i+1)); got != want {
				t.Fatalf("%s: ring bytes %d decode to %v, want %v", w.Name, i, got, want)
			}
		}
	}
}

// decode parses one multibulk request back into the op that encodes to it.
func decode(t *testing.T, w *Workload, b []byte) Op {
	t.Helper()
	typ, argc, p, ok := header(b, 0)
	if !ok || typ != '*' {
		t.Fatalf("not a multibulk request: %q", b)
	}
	args := make([][]byte, argc)
	for i := range args {
		body, next, st := bulk(b, p)
		if st != Good {
			t.Fatalf("argument %d of %q does not parse", i, b)
		}
		args[i], p = body, next
	}
	if p != len(b) {
		t.Fatalf("%d bytes trail the request %q", len(b)-p, b)
	}
	kind, ok := map[string]Kind{"GET": Get, "SET": Set, "DEL": Del, "SETEX": SetEX, "RANGE": Range}[string(args[0])]
	if !ok {
		t.Fatalf("unknown command in %q", b)
	}
	var key uint64
	if w.Ordered {
		n, _ := parseKey(args[1])
		key = n/KeyStride - 1
	} else {
		key, _ = strconv.ParseUint(string(bytes.TrimPrefix(args[1], []byte("user:"))), 10, 32)
	}
	op := Op{Kind: kind, Key: uint32(key)}
	switch kind {
	case Set, SetEX:
		if !w.valueIs(op.Key, args[len(args)-1]) {
			t.Fatalf("%q does not carry its key's value", b)
		}
	case Range:
		_, hi := w.RangeBounds(op.Key)
		if string(args[2]) != strconv.FormatUint(hi, 10) || string(args[4]) != strconv.Itoa(w.RangeLen) {
			t.Fatalf("%q has the wrong bound or limit", b)
		}
	}
	return op
}

func TestStreamFollowsTheMix(t *testing.T) {
	s := NewStream(&hashLoad, 1, 0)
	var counts [NumKinds]int
	const n = 200_000
	for range n {
		op := s.Next()
		if op.Key >= hashLoad.Keys {
			t.Fatalf("key %d outside the population", op.Key)
		}
		counts[op.Kind]++
	}
	for k, pct := range hashLoad.Pct {
		if got := 100 * float64(counts[k]) / n; got < float64(pct)-0.5 || got > float64(pct)+0.5 {
			t.Errorf("kind %d: %.2f%% of the draws, want %d%%", k, got, pct)
		}
	}
}

func TestHistQuantileWithinOneBucketOfExactSort(t *testing.T) {
	r := NewRand(42)
	var h Hist
	var exact []uint64
	for range 100_000 {
		// Log-uniform over 1 µs to 16 ms, the range latencies fall in.
		v := uint64(1000 * float64(uint64(1)<<r.Intn(15)) * (1 + r.Float64()))
		h.Record(int64(v))
		exact = append(exact, v)
	}
	slices.Sort(exact)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		want := exact[int(q*float64(len(exact)-1))]
		got := uint64(h.Quantile(q))
		if d := histIndex(got) - histIndex(want); d < -1 || d > 1 {
			t.Errorf("q=%v: histogram says %d, exact sort says %d (%d buckets apart)", q, got, want, d)
		}
	}
	if h.Max() != exact[len(exact)-1] || h.Count() != uint64(len(exact)) {
		t.Errorf("max %d count %d, want %d and %d", h.Max(), h.Count(), exact[len(exact)-1], len(exact))
	}
}

func TestHistBucketsTile(t *testing.T) {
	next := uint64(0)
	for i := range histBuckets {
		lo, width := histBounds(i)
		if lo != next {
			t.Fatalf("bucket %d starts at %d, the previous one ended at %d", i, lo, next)
		}
		if histIndex(lo) != i || histIndex(lo+width-1) != i {
			t.Fatalf("bucket %d does not index its own bounds", i)
		}
		next = lo + width
	}
}

func bulkReply(b []byte) []byte { return appendBulk(nil, b) }

func rangeReply(w *Workload, keys ...uint64) []byte {
	b := []byte(fmt.Sprintf("*%d\r\n", 2*len(keys)))
	for _, k := range keys {
		b = appendBulk(b, strconv.AppendUint(nil, k, 10))
		b = appendBulk(b, w.AppendValue(nil, uint32(k/KeyStride-1)))
	}
	return b
}

func TestCheck(t *testing.T) {
	h, o := &hashLoad, &orderedLoad
	lo, hi := o.RangeBounds(5)
	tooMany := make([]uint64, o.RangeLen+1)
	for i := range tooMany {
		tooMany[i] = lo + uint64(i)*KeyStride
	}
	cases := []struct {
		name  string
		w     *Workload
		op    Op
		reply []byte
		want  Status
		hit   bool
		pairs int
	}{
		{"get hit", h, Op{Get, 9}, bulkReply(h.AppendValue(nil, 9)), Good, true, 0},
		{"get miss", h, Op{Get, 9}, []byte("$-1\r\n"), Good, false, 0},
		{"get another key's value", h, Op{Get, 9}, bulkReply(h.AppendValue(nil, 10)), Wrong, false, 0},
		{"get truncated value", h, Op{Get, 9}, bulkReply(h.AppendValue(nil, 9)[:63]), Wrong, false, 0},
		{"get answered with an integer", h, Op{Get, 9}, []byte(":1\r\n"), Torn, false, 0},
		{"get bulk without its CRLF", h, Op{Get, 9}, []byte("$2\r\nabcd\r\n"), Torn, false, 0},
		{"soft error", h, Op{Get, 9}, []byte("-ERR busy retry\r\n"), Wrong, false, 0},
		{"not a reply", h, Op{Get, 9}, []byte("hello\r\n"), Torn, false, 0},
		{"set fresh", h, Op{Set, 9}, []byte(":0\r\n"), Good, false, 0},
		{"setex replaced", h, Op{SetEX, 9}, []byte(":1\r\n"), Good, true, 0},
		{"del removed", h, Op{Del, 9}, []byte(":1\r\n"), Good, true, 0},
		{"set with a count", h, Op{Set, 9}, []byte(":2\r\n"), Wrong, false, 0},
		{"set with no digits", h, Op{Set, 9}, []byte(":\r\n"), Torn, false, 0},
		{"range empty", o, Op{Range, 5}, []byte("*0\r\n"), Good, false, 0},
		{"range ascending", o, Op{Range, 5}, rangeReply(o, lo, lo+8, hi-3), Good, false, 3},
		{"range repeats a key", o, Op{Range, 5}, rangeReply(o, lo, lo), Wrong, false, 2},
		{"range descending", o, Op{Range, 5}, rangeReply(o, lo+8, lo), Wrong, false, 2},
		{"range below its bound", o, Op{Range, 5}, rangeReply(o, lo-KeyStride), Wrong, false, 1},
		{"range above its bound", o, Op{Range, 5}, rangeReply(o, hi+1), Wrong, false, 1},
		{"range off the key grid", o, Op{Range, 5}, append([]byte("*2\r\n"), appendBulk(bulkReply([]byte("26")), o.AppendValue(nil, 5))...), Wrong, false, 1},
		{"range past its limit", o, Op{Range, 5}, rangeReply(o, tooMany...), Wrong, false, len(tooMany)},
		{"range odd count", o, Op{Range, 5}, append([]byte("*1\r\n"), bulkReply([]byte("24"))...), Wrong, false, 0},
		{"range with another key's value", o, Op{Range, 5}, append([]byte("*2\r\n"), appendBulk(bulkReply([]byte("24")), o.AppendValue(nil, 6))...), Wrong, false, 1},
	}
	for _, c := range cases {
		// Trailing bytes of the next reply must not be consumed.
		buf := append(slices.Clone(c.reply), ":1\r\n"...)
		n, st, r := c.w.Check(c.op, buf)
		if st != c.want {
			t.Errorf("%s: status %d, want %d", c.name, st, c.want)
			continue
		}
		if st == Torn {
			continue
		}
		if n != len(c.reply) {
			t.Errorf("%s: consumed %d bytes of a %d-byte reply", c.name, n, len(c.reply))
		}
		if st == Good && (r.Hit != c.hit || r.Pairs != c.pairs) {
			t.Errorf("%s: got %+v, want hit=%v pairs=%d", c.name, r, c.hit, c.pairs)
		}
		// Every proper prefix of a well-formed reply is a reply still arriving.
		for cut := range len(c.reply) {
			if n, st, _ := c.w.Check(c.op, c.reply[:cut]); st != Incomplete || n != 0 {
				t.Errorf("%s: first %d bytes: status %d consumed %d, want Incomplete and 0", c.name, cut, st, n)
				break
			}
		}
	}
}
