package core

import (
	"reflect"
	"sync/atomic"
	"unsafe"
)

// Word is an index's 8-byte value cell: a uint64 for the paper's tables, a
// pointer for the string layer, which keeps its values' only reference in
// the index itself. V must be exactly uint64 or a pointer type (CheckWord).
//
// Word has no methods on purpose. A method call on a type parameter is an
// indirect call through the instantiation's dictionary in every
// instantiation; the functions below instead pick the atomic by asserting
// a nil *V to *uint64 — a type switch with one case — which in each
// instantiation is one compare of a type word from the dictionary and a
// plain MOV. A pointer word is moved with the pointer atomics, so the
// collector's write barrier sees every store.
type Word[V any] struct{ v V }

// LoadWord atomically loads w.
func LoadWord[V any](w *Word[V]) V {
	if _, ok := any((*V)(nil)).(*uint64); ok {
		u := atomic.LoadUint64((*uint64)(unsafe.Pointer(w)))
		return *(*V)(unsafe.Pointer(&u))
	}
	p := atomic.LoadPointer((*unsafe.Pointer)(unsafe.Pointer(w)))
	return *(*V)(unsafe.Pointer(&p))
}

// StoreWord atomically stores v into w.
func StoreWord[V any](w *Word[V], v V) {
	if _, ok := any((*V)(nil)).(*uint64); ok {
		atomic.StoreUint64((*uint64)(unsafe.Pointer(w)), *(*uint64)(unsafe.Pointer(&v)))
		return
	}
	atomic.StorePointer((*unsafe.Pointer)(unsafe.Pointer(w)), *(*unsafe.Pointer)(unsafe.Pointer(&v)))
}

// ClearWord drops what w holds for the collector: a pointer word is set to
// nil, and a uint64 word, which holds nothing, is left alone — clearing it
// would cost a locked store and free nothing.
func ClearWord[V any](w *Word[V]) {
	if _, ok := any((*V)(nil)).(*uint64); ok {
		return
	}
	atomic.StorePointer((*unsafe.Pointer)(unsafe.Pointer(w)), nil)
}

// CheckWord panics unless V is one of the two shapes Word knows how to move:
// uint64 itself or a pointer. Any other 8-byte type would take the pointer
// path and hand the collector a word that is not a pointer. The structures
// over Word call it once, at construction.
func CheckWord[V any]() {
	t := reflect.TypeFor[V]()
	if t != reflect.TypeFor[uint64]() && t.Kind() != reflect.Pointer && t.Kind() != reflect.UnsafePointer {
		panic("core: a value word must be uint64 or a pointer, not " + t.String())
	}
}
