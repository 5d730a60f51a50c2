// Package stack implements the concurrent LIFO stacks discussed in §5.5:
// the classic lock-free Treiber stack [48] and its OPTIK-based redesign.
// The paper reports the two behave similarly — a stack's single point of
// contention (the top pointer) cannot be helped by OPTIK or lock-freedom
// alone — and we reproduce that comparison in the benchmark harness.
package stack

import (
	"sync/atomic"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/internal/backoff"
	"github.com/optik-go/optik/internal/core"
)

// node is a stack node.
type node struct {
	val  uint64
	next *node // immutable after push (popped nodes are never reused)
}

// Treiber is the classic lock-free stack [48]: push and pop CAS the top
// pointer. Go's GC removes the ABA hazard of the original.
type Treiber struct {
	top atomic.Pointer[node]
}

var _ ds.Stack = (*Treiber)(nil)

// NewTreiber returns an empty Treiber stack.
func NewTreiber() *Treiber { return &Treiber{} }

// Push places val on top of the stack.
func (s *Treiber) Push(val uint64) {
	n := &node{val: val}
	var bo backoff.Backoff
	for {
		top := s.top.Load()
		n.next = top
		if s.top.CompareAndSwap(top, n) {
			return
		}
		bo.Wait()
	}
}

// Pop removes and returns the top element, if any.
func (s *Treiber) Pop() (uint64, bool) {
	var bo backoff.Backoff
	for {
		top := s.top.Load()
		if top == nil {
			return 0, false
		}
		if s.top.CompareAndSwap(top, top.next) {
			return top.val, true
		}
		bo.Wait()
	}
}

// Len counts the stacked elements (not linearizable).
func (s *Treiber) Len() int {
	n := 0
	for cur := s.top.Load(); cur != nil; cur = cur.next {
		n++
	}
	return n
}

// Optik is the OPTIK-based stack: the top pointer is protected by an OPTIK
// lock, operations prepare optimistically and commit with a single
// validate-and-lock CAS. Structurally this performs the same single-CAS
// commit as Treiber (plus an unlock store), which is why the two behave
// alike in the paper's experiments.
type Optik struct {
	lock core.Lock
	top  atomic.Pointer[node]
}

var _ ds.Stack = (*Optik)(nil)

// NewOptik returns an empty OPTIK stack.
func NewOptik() *Optik { return &Optik{} }

// Push places val on top of the stack.
func (s *Optik) Push(val uint64) {
	n := &node{val: val}
	var bo backoff.Backoff
	for {
		v := s.lock.GetVersion()
		if v.IsLocked() {
			bo.Wait()
			continue
		}
		n.next = s.top.Load()
		if s.lock.TryLockVersion(v) {
			s.top.Store(n)
			s.lock.Unlock()
			return
		}
		bo.Wait()
	}
}

// PushAll places every value on the stack under ONE validate-and-lock
// commit, leaving vals[len-1] on top — exactly the state len(vals)
// scalar Pushes would produce, at one lock acquisition instead of n.
// The chain is linked outside the critical section (the OPTIK prepare
// phase), so the locked window is two stores regardless of batch size;
// a batch producer — a free list taking back a request's worth of
// handles, say — amortizes the stack's single point of contention the
// same way the tables' batch operations amortize their per-op costs.
func (s *Optik) PushAll(vals []uint64) {
	if len(vals) == 0 {
		return
	}
	// Build tail→…→head links: vals[0] is the chain's deepest node.
	var first *node // becomes the new top (last value pushed)
	var last *node  // joins the old top
	for _, v := range vals {
		n := &node{val: v, next: first}
		if first == nil {
			last = n
		}
		first = n
	}
	var bo backoff.Backoff
	for {
		v := s.lock.GetVersion()
		if v.IsLocked() {
			bo.Wait()
			continue
		}
		last.next = s.top.Load()
		if s.lock.TryLockVersion(v) {
			s.top.Store(first)
			s.lock.Unlock()
			return
		}
		bo.Wait()
	}
}

// Pop removes and returns the top element, if any. An empty stack is
// detected without locking (the emptiness read linearizes on its own).
func (s *Optik) Pop() (uint64, bool) {
	var bo backoff.Backoff
	for {
		v := s.lock.GetVersion()
		if v.IsLocked() {
			bo.Wait()
			continue
		}
		top := s.top.Load()
		if top == nil {
			return 0, false
		}
		if s.lock.TryLockVersion(v) {
			s.top.Store(top.next)
			s.lock.Unlock()
			return top.val, true
		}
		bo.Wait()
	}
}

// Len counts the stacked elements (not linearizable).
func (s *Optik) Len() int {
	n := 0
	for cur := s.top.Load(); cur != nil; cur = cur.next {
		n++
	}
	return n
}
