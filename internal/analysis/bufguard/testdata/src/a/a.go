// Package a seeds bufguard violations next to the correct idioms they
// degrade from: dropped checkouts and forgotten early-return puts, beside
// the connState field-store shape that legitimately transfers ownership.
package a

type coalescer struct{}

// The pool surface under test: name-matched stubs of server/bufpool.go.
func getBytes(size int) []byte   { return make([]byte, 0, size) }
func putBytes(b []byte)          {}
func getCoalescer() *coalescer   { return &coalescer{} }
func putCoalescer(co *coalescer) {}

func work(b []byte) []byte { return b }

// deferOK is the canonical scratch borrow: defer covers every path.
func deferOK(n int) {
	b := getBytes(n)
	defer putBytes(b)
	work(b)
}

// explicitOK puts the buffer back on each path without a defer.
func explicitOK(n int, cond bool) {
	b := getBytes(n)
	if cond {
		putBytes(b)
		return
	}
	work(b)
	putBytes(b)
}

// growOK reassigns the scratch through append before returning it — the
// coalescer idiom; same variable, same ownership.
func growOK(n int) {
	b := getBytes(n)
	b = append(b, 'x')
	putBytes(b)
}

// leakOnReturn forgets the early path.
func leakOnReturn(n int, cond bool) {
	b := getBytes(n)
	if cond {
		return // want `pooled buffer may still be checked out at this return`
	}
	putBytes(b)
}

// neverPut drops the checkout entirely: the GC eats the buffer, the pool
// never sees it again.
func neverPut(n int) {
	b := getBytes(n) // want `never returns to its pool`
	work(b)
}

// wrongPut returns a coalescer's slot through the bytes pool: not a
// release of co.
func wrongPut(n int) {
	co := getCoalescer() // want `never returns to its pool`
	_ = co
	b := getBytes(n)
	putBytes(b)
}

// bothOK pairs both checkout kinds with their own puts.
func bothOK(n int) {
	b := getBytes(n)
	co := getCoalescer()
	defer putBytes(b)
	defer putCoalescer(co)
}

// coalescerLeak forgets the coalescer on the error path.
func coalescerLeak(fail bool) {
	co := getCoalescer()
	if fail {
		return // want `pooled buffer may still be checked out at this return`
	}
	putCoalescer(co)
}

// conn mirrors connState: checkouts stored into fields transfer
// ownership to the struct, whose releaseBuffers puts them back later.
type conn struct {
	in  []byte
	out []byte
	co  *coalescer
}

// acquireOK is the repo idiom — no diagnostic: the struct owns the
// buffers now.
func (c *conn) acquireOK(n int) {
	c.in = getBytes(n)
	c.out = getBytes(2 * n)
	c.co = getCoalescer()
}

// handOff stores a local checkout into a field before returning:
// ownership transferred, not a leak here.
func handOff(c *conn, n int) {
	b := getBytes(n)
	b = append(b, 'y')
	c.out = b
}

// returned escapes to the caller; their put, their problem.
func returned(n int) []byte {
	b := getBytes(n)
	return b
}
