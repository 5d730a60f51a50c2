// Package ds defines the interfaces shared by every concurrent data
// structure in the library. Keys and values are uint64, matching the
// paper's 8-byte keys and values; key 0 and key 2^64-1 are reserved for the
// head and tail sentinels of the list-based structures.
package ds

import "math"

// MinKey and MaxKey bound the usable key space. The sentinels of the
// list-based structures use the values outside this range.
const (
	MinKey uint64 = 1
	MaxKey uint64 = math.MaxUint64 - 1
)

// Set is the interface of the search data structures (lists, hash tables,
// skip lists, array maps): Search, Insert and Delete over unique keys (§2).
// All methods are safe for concurrent use.
type Set interface {
	// Search returns the value stored under key, if present.
	Search(key uint64) (uint64, bool)
	// Insert adds key→val if key is absent and reports whether it did.
	Insert(key, val uint64) bool
	// Delete removes key, returning its value, if present.
	Delete(key uint64) (uint64, bool)
	// Len returns the number of elements. It traverses the structure and is
	// not linearizable with respect to concurrent updates; it is meant for
	// tests and monitoring.
	Len() int
}

// Handled is implemented by structures that carry per-goroutine state, such
// as the node caches of §5.1. A Handle must be used by one goroutine at a
// time; the structure itself remains safe for direct concurrent use (a
// direct call simply skips the per-goroutine optimizations).
type Handled interface {
	Set
	// NewHandle returns a per-goroutine view of the structure.
	NewHandle() Set
}

// HandleFor returns a per-goroutine view of s when it offers one, and s
// itself otherwise. Benchmark workers call it once at startup.
func HandleFor(s Set) Set {
	if h, ok := s.(Handled); ok {
		return h.NewHandle()
	}
	return s
}

// Queue is the interface of the FIFO queues (§5.4). All methods are safe
// for concurrent use.
type Queue interface {
	// Enqueue appends val at the tail of the queue.
	Enqueue(val uint64)
	// Dequeue removes and returns the head element, if any.
	Dequeue() (uint64, bool)
	// Len returns the number of queued elements; like Set.Len it is not
	// linearizable and is meant for tests and monitoring.
	Len() int
}

// Stack is the interface of the LIFO stacks (§5.5).
type Stack interface {
	// Push places val on top of the stack.
	Push(val uint64)
	// Pop removes and returns the top element, if any.
	Pop() (uint64, bool)
	// Len returns the number of stacked elements (non-linearizable).
	Len() int
}

// CheckKey panics when key is outside the usable range. The list-based
// structures call it on the update paths; it compiles to two compares.
func CheckKey(key uint64) {
	if key < MinKey || key > MaxKey {
		panic("ds: key out of range [1, 2^64-2]; 0 and 2^64-1 are reserved for sentinels")
	}
}

// Put is an upsert whose value is built only if it is stored: the request
// the index structures' Write takes (hashmap.Resizable, skiplist.Optik),
// and through them the store's shard contract. A Put with Keep and Build
// nil stores Val, and is exactly the structures' Upsert.
//
// Keep and Build are plain functions and the payload travels inside the
// Put, by value: a closure handed through an interface call escapes, and
// would cost the write an allocation before it decided anything.
type Put[V any] struct {
	// Val is the value to store when Build is nil.
	Val V
	// Keep, when non-nil, judges the value key already maps to, once the
	// parse that found it has validated it exactly as Search validates a
	// hit. True means storing would change nothing: Write returns at
	// once, with no lock taken, no store and no version bump, so no
	// concurrent reader restarts.
	Keep func(old V, p Put[V]) bool
	// Build, when non-nil, builds the value to store from the payload. It
	// runs outside every critical section, only once Keep has declined or
	// the key was found absent, and at most once per Write.
	Build func(p Put[V]) V
	// The payload Keep compares with and Build builds from. The
	// structures never read it.
	Bytes string
	Aux   int64
	Tag   uint32
}
