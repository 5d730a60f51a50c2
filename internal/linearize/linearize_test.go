package linearize

import "testing"

// mkOp builds an operation with explicit times.
func setOp(op int, key, val uint64, outVal uint64, ok bool, call, ret int64) Operation {
	return Operation{
		Input:  SetInput{Op: op, Key: key, Val: val},
		Output: SetOutput{Val: outVal, OK: ok},
		Call:   call,
		Return: ret,
	}
}

func TestEmptyHistory(t *testing.T) {
	if !Check(SetModel(), nil) {
		t.Fatal("empty history must be linearizable")
	}
}

func TestSequentialSetHistory(t *testing.T) {
	h := []Operation{
		setOp(OpInsert, 1, 10, 0, true, 0, 1),
		setOp(OpSearch, 1, 0, 10, true, 2, 3),
		setOp(OpDelete, 1, 0, 10, true, 4, 5),
		setOp(OpSearch, 1, 0, 0, false, 6, 7),
	}
	if !Check(SetModel(), h) {
		t.Fatal("valid sequential history rejected")
	}
}

func TestSequentialSetViolation(t *testing.T) {
	// Search finds a value that was never inserted.
	h := []Operation{
		setOp(OpInsert, 1, 10, 0, true, 0, 1),
		setOp(OpSearch, 1, 0, 99, true, 2, 3),
	}
	if Check(SetModel(), h) {
		t.Fatal("foreign-value history accepted")
	}
}

func TestStaleReadViolation(t *testing.T) {
	// Delete completes strictly before the search starts, yet the search
	// still sees the key: non-linearizable.
	h := []Operation{
		setOp(OpInsert, 1, 10, 0, true, 0, 1),
		setOp(OpDelete, 1, 0, 10, true, 2, 3),
		setOp(OpSearch, 1, 0, 10, true, 4, 5),
	}
	if Check(SetModel(), h) {
		t.Fatal("stale read accepted")
	}
}

func TestConcurrentOverlapAllowsEitherOrder(t *testing.T) {
	// Insert and search overlap: the search may see either state.
	for _, found := range []bool{true, false} {
		out := SetOutput{OK: found}
		if found {
			out.Val = 10
		}
		h := []Operation{
			setOp(OpInsert, 1, 10, 0, true, 0, 10),
			{Input: SetInput{Op: OpSearch, Key: 1}, Output: out, Call: 2, Return: 8},
		}
		if !Check(SetModel(), h) {
			t.Fatalf("overlapping search (found=%v) rejected", found)
		}
	}
}

func TestDuplicateInsertViolation(t *testing.T) {
	// Two non-overlapping successful inserts of the same key.
	h := []Operation{
		setOp(OpInsert, 1, 10, 0, true, 0, 1),
		setOp(OpInsert, 1, 20, 0, true, 2, 3),
	}
	if Check(SetModel(), h) {
		t.Fatal("double successful insert accepted")
	}
}

func TestPartitioningIndependence(t *testing.T) {
	// Violation on key 2 must be caught even among valid key-1 traffic.
	h := []Operation{
		setOp(OpInsert, 1, 10, 0, true, 0, 1),
		setOp(OpSearch, 1, 0, 10, true, 2, 3),
		setOp(OpSearch, 2, 0, 5, true, 4, 5), // never inserted
	}
	if Check(SetModel(), h) {
		t.Fatal("cross-key violation missed")
	}
}

func qOp(op int, val uint64, outVal uint64, ok bool, call, ret int64) Operation {
	return Operation{
		Input:  QueueInput{Op: op, Val: val},
		Output: QueueOutput{Val: outVal, OK: ok},
		Call:   call,
		Return: ret,
	}
}

func TestQueueFIFO(t *testing.T) {
	h := []Operation{
		qOp(OpEnqueue, 1, 0, true, 0, 1),
		qOp(OpEnqueue, 2, 0, true, 2, 3),
		qOp(OpDequeue, 0, 1, true, 4, 5),
		qOp(OpDequeue, 0, 2, true, 6, 7),
		qOp(OpDequeue, 0, 0, false, 8, 9),
	}
	if !Check(QueueModel(), h) {
		t.Fatal("valid FIFO history rejected")
	}
}

func TestQueueLIFOViolation(t *testing.T) {
	h := []Operation{
		qOp(OpEnqueue, 1, 0, true, 0, 1),
		qOp(OpEnqueue, 2, 0, true, 2, 3),
		qOp(OpDequeue, 0, 2, true, 4, 5), // LIFO order: invalid for a queue
	}
	if Check(QueueModel(), h) {
		t.Fatal("LIFO dequeue accepted by queue model")
	}
}

func TestQueueConcurrentEnqueues(t *testing.T) {
	// Two overlapping enqueues: dequeues may observe either order.
	for _, first := range []uint64{1, 2} {
		second := uint64(3 - first)
		h := []Operation{
			qOp(OpEnqueue, 1, 0, true, 0, 10),
			qOp(OpEnqueue, 2, 0, true, 0, 10),
			qOp(OpDequeue, 0, first, true, 11, 12),
			qOp(OpDequeue, 0, second, true, 13, 14),
		}
		if !Check(QueueModel(), h) {
			t.Fatalf("order %d-first rejected", first)
		}
	}
}

func TestQueueLostElementViolation(t *testing.T) {
	// Dequeue of a value that was never enqueued.
	h := []Operation{
		qOp(OpEnqueue, 1, 0, true, 0, 1),
		qOp(OpDequeue, 0, 9, true, 2, 3),
	}
	if Check(QueueModel(), h) {
		t.Fatal("phantom dequeue accepted")
	}
}

func TestQueueEmptyDequeueWhileFull(t *testing.T) {
	// Non-overlapping: enqueue done, then dequeue reports empty: invalid.
	h := []Operation{
		qOp(OpEnqueue, 1, 0, true, 0, 1),
		qOp(OpDequeue, 0, 0, false, 2, 3),
	}
	if Check(QueueModel(), h) {
		t.Fatal("false-empty accepted")
	}
}

func sOp(op int, val uint64, outVal uint64, ok bool, call, ret int64) Operation {
	return Operation{
		Input:  StackInput{Op: op, Val: val},
		Output: StackOutput{Val: outVal, OK: ok},
		Call:   call,
		Return: ret,
	}
}

func TestStackLIFO(t *testing.T) {
	h := []Operation{
		sOp(OpPush, 1, 0, true, 0, 1),
		sOp(OpPush, 2, 0, true, 2, 3),
		sOp(OpPop, 0, 2, true, 4, 5),
		sOp(OpPop, 0, 1, true, 6, 7),
		sOp(OpPop, 0, 0, false, 8, 9),
	}
	if !Check(StackModel(), h) {
		t.Fatal("valid LIFO history rejected")
	}
}

func TestStackFIFOViolation(t *testing.T) {
	h := []Operation{
		sOp(OpPush, 1, 0, true, 0, 1),
		sOp(OpPush, 2, 0, true, 2, 3),
		sOp(OpPop, 0, 1, true, 4, 5), // FIFO order: invalid for a stack
	}
	if Check(StackModel(), h) {
		t.Fatal("FIFO pop accepted by stack model")
	}
}

func TestBitset(t *testing.T) {
	b := newBitset(130)
	b.set(0)
	b.set(64)
	b.set(129)
	for _, i := range []int{0, 64, 129} {
		if !b.get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	b.clear(64)
	if b.get(64) {
		t.Fatal("bit 64 still set")
	}
	if b.get(1) || b.get(128) {
		t.Fatal("unexpected bits set")
	}
}

func TestInstantaneousOps(t *testing.T) {
	// Zero-duration operations (Call == Return) must still check cleanly.
	h := []Operation{
		setOp(OpInsert, 1, 10, 0, true, 5, 5),
		setOp(OpSearch, 1, 0, 10, true, 5, 5),
	}
	if !Check(SetModel(), h) {
		t.Fatal("instantaneous overlapping ops rejected")
	}
}

func TestDeepBacktracking(t *testing.T) {
	// Many overlapping inserts+deletes on one key force real search.
	var h []Operation
	t0 := int64(0)
	for i := 0; i < 10; i++ {
		h = append(h, setOp(OpInsert, 1, uint64(i), 0, i == 0, t0, t0+20))
		t0++
	}
	h = append(h, setOp(OpDelete, 1, 0, 0, true, t0, t0+20))
	if !Check(SetModel(), h) {
		t.Fatal("overlapping same-key batch rejected")
	}
}

// kvOp builds a KV operation with explicit times.
func kvOp(op int, key uint64, val string, ok bool, call, ret int64) Operation {
	in := KVInput{Op: op, Key: key}
	out := KVOutput{OK: ok}
	if op == OpKVGet {
		out.Val = val
	} else {
		in.Val = val
	}
	return Operation{Input: in, Output: out, Call: call, Return: ret}
}

// TestKVCacheModel pins what eviction may and may not explain: a key found
// absent without any DEL (evicted), and a SET that then reports a fresh
// insert, are accepted; a SET that reports the key replaced after a DEL
// that completed before it began — a restating SET that kept a deleted
// entry — is not, nor is a GET that finds a value after its key was
// evicted and never written again.
func TestKVCacheModel(t *testing.T) {
	evicted := []Operation{
		kvOp(OpKVSet, 1, "a", false, 0, 1),
		kvOp(OpKVGet, 1, "", false, 2, 3),
		kvOp(OpKVSet, 1, "a", false, 4, 5),
		kvOp(OpKVGet, 1, "a", true, 6, 7),
		kvOp(OpKVDel, 1, "", false, 8, 9),
	}
	if !Check(KVCacheModel(), evicted) {
		t.Fatal("a history explained by evictions was rejected")
	}
	keptDeleted := []Operation{
		kvOp(OpKVSet, 1, "a", false, 0, 1),
		kvOp(OpKVDel, 1, "", true, 2, 3),
		kvOp(OpKVSet, 1, "a", true, 4, 5),
	}
	if Check(KVCacheModel(), keptDeleted) {
		t.Fatal("a SET that replaced a deleted key was accepted")
	}
	resurrected := []Operation{
		kvOp(OpKVSet, 1, "a", false, 0, 1),
		kvOp(OpKVGet, 1, "", false, 2, 3),
		kvOp(OpKVGet, 1, "a", true, 4, 5),
	}
	if Check(KVCacheModel(), resurrected) {
		t.Fatal("a value found again after its key was evicted was accepted")
	}
}
