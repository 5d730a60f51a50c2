package linearize

import (
	"fmt"
	"strings"
)

// Set operations for SetModel histories.
const (
	OpSearch = iota
	OpInsert
	OpDelete
)

// SetInput is the input of one set operation.
type SetInput struct {
	Op  int
	Key uint64
	Val uint64
}

// SetOutput is the observed result.
type SetOutput struct {
	Val uint64
	OK  bool
}

// setState is the per-key state: whether the key is present and with which
// value (P-compositional checking never needs more).
type setState struct {
	present bool
	val     uint64
}

// SetModel returns the sequential specification of the Set interface,
// partitioned per key (P-compositionality: a set is linearizable iff each
// single-key restriction is).
func SetModel() Model {
	return Model{
		Init: func() any { return setState{} },
		Step: func(state, input, output any) (bool, any) {
			s := state.(setState)
			in := input.(SetInput)
			out := output.(SetOutput)
			switch in.Op {
			case OpSearch:
				if out.OK {
					return s.present && s.val == out.Val, s
				}
				return !s.present, s
			case OpInsert:
				if out.OK {
					return !s.present, setState{present: true, val: in.Val}
				}
				return s.present, s
			case OpDelete:
				if out.OK {
					return s.present && s.val == out.Val, setState{}
				}
				return !s.present, s
			}
			return false, s
		},
		Key: func(state any) string {
			s := state.(setState)
			return fmt.Sprintf("%v:%d", s.present, s.val)
		},
		Partition: func(ops []Operation) [][]Operation {
			byKey := map[uint64][]Operation{}
			for _, op := range ops {
				k := op.Input.(SetInput).Key
				byKey[k] = append(byKey[k], op)
			}
			parts := make([][]Operation, 0, len(byKey))
			for _, p := range byKey {
				parts = append(parts, p)
			}
			return parts
		},
	}
}

// KV-TTL operations for KVTTLModel histories: the string store's
// observable surface with expiry in the mix. Every op is deterministic
// given the state — the clock is part of the state, advanced by explicit
// OpKVAdvance operations recorded in the history, so "an expired Get must
// linearize as a miss after its deadline, never before" is exactly what
// the checker decides. (The relative forms — SetEX, Expire-by-seconds —
// are excluded: their deadline depends on the nondeterministic instant
// the operation linearizes at; the sequential property suite covers
// them.)
const (
	OpKVGet = iota
	OpKVSet
	OpKVDel
	OpKVExpireAt
	OpKVPersist
	OpKVAdvance
)

// KVInput is the input of one KV-TTL operation. Advance carries the
// absolute clock value in Deadline; ExpireAt carries the absolute expiry
// deadline there.
type KVInput struct {
	Op       int
	Key      uint64
	Val      string
	Deadline int64
}

// KVOutput is the observed result: the value for Get, the
// replaced/present/had-TTL bool for the writes.
type KVOutput struct {
	Val string
	OK  bool
}

// kvState is the per-key state plus the clock: presence, value, deadline
// (0 = no TTL), and the model time. An entry past its deadline is
// normalized to absent before every step.
type kvState struct {
	present  bool
	val      string
	deadline int64
	now      int64
}

func (s kvState) normalized() kvState {
	if s.present && s.deadline != 0 && s.deadline <= s.now {
		return kvState{now: s.now}
	}
	return s
}

// KVTTLModel returns the sequential specification of the string store
// with TTL, partitioned per key with the clock-advance operations
// replicated into every partition (they commute with themselves and are
// the only cross-key coupling, so P-compositionality still holds: each
// single-key restriction must be linearizable against the shared clock).
// start is the injected clock's initial value — the model time before the
// first Advance; mismatching it makes a past-deadline ExpireAt diverge.
func KVTTLModel(start int64) Model {
	return Model{
		Init: func() any { return kvState{now: start} },
		Step: func(state, input, output any) (bool, any) {
			s := state.(kvState).normalized()
			in := input.(KVInput)
			out := output.(KVOutput)
			switch in.Op {
			case OpKVAdvance:
				if in.Deadline > s.now {
					s.now = in.Deadline
				}
				return true, s
			case OpKVGet:
				if out.OK {
					return s.present && s.val == out.Val, s
				}
				return !s.present, s
			case OpKVSet:
				return out.OK == s.present, kvState{present: true, val: in.Val, now: s.now}
			case OpKVDel:
				return out.OK == s.present, kvState{now: s.now}
			case OpKVExpireAt:
				if !s.present {
					return !out.OK, s
				}
				if !out.OK {
					return false, s
				}
				d := in.Deadline
				if d <= 0 {
					d = 1
				}
				s.deadline = d
				return true, s
			case OpKVPersist:
				if out.OK {
					if !s.present || s.deadline == 0 {
						return false, s
					}
					s.deadline = 0
					return true, s
				}
				return !s.present || s.deadline == 0, s
			}
			return false, s
		},
		Key: func(state any) string {
			s := state.(kvState)
			return fmt.Sprintf("%v:%s:%d:%d", s.present, s.val, s.deadline, s.now)
		},
		Partition: func(ops []Operation) [][]Operation {
			byKey := map[uint64][]Operation{}
			var advances []Operation
			for _, op := range ops {
				in := op.Input.(KVInput)
				if in.Op == OpKVAdvance {
					advances = append(advances, op)
					continue
				}
				byKey[in.Key] = append(byKey[in.Key], op)
			}
			parts := make([][]Operation, 0, len(byKey))
			for _, p := range byKey {
				parts = append(parts, append(p, advances...))
			}
			return parts
		},
	}
}

// KVCacheModel returns the sequential specification of the string store
// under a byte budget, over the OpKVGet, OpKVSet and OpKVDel operations:
// the store's eviction may remove any key at any instant, and records
// nothing a history can see. An eviction is a step the checker cannot
// place, so the model folds it into the operation that observes it: an
// operation that finds its key absent is accepted in any state, and moves
// the state to absent — the key was evicted just before it. An operation
// that finds the key present must find it present in the model, holding
// the value last written: eviction never brings a key back, and never
// brings back a value that was overwritten. Partitioned per key like
// SetModel.
func KVCacheModel() Model {
	return Model{
		Init: func() any { return kvState{} },
		Step: func(state, input, output any) (bool, any) {
			s := state.(kvState)
			in := input.(KVInput)
			out := output.(KVOutput)
			switch in.Op {
			case OpKVGet:
				if out.OK {
					return s.present && s.val == out.Val, s
				}
				return true, kvState{}
			case OpKVSet:
				return !out.OK || s.present, kvState{present: true, val: in.Val}
			case OpKVDel:
				return !out.OK || s.present, kvState{}
			}
			return false, s
		},
		Key: func(state any) string {
			s := state.(kvState)
			return fmt.Sprintf("%v:%s", s.present, s.val)
		},
		Partition: func(ops []Operation) [][]Operation {
			byKey := map[uint64][]Operation{}
			for _, op := range ops {
				k := op.Input.(KVInput).Key
				byKey[k] = append(byKey[k], op)
			}
			parts := make([][]Operation, 0, len(byKey))
			for _, p := range byKey {
				parts = append(parts, p)
			}
			return parts
		},
	}
}

// Queue operations for QueueModel histories.
const (
	OpEnqueue = iota
	OpDequeue
)

// QueueInput is the input of one queue operation.
type QueueInput struct {
	Op  int
	Val uint64
}

// QueueOutput is the observed result (for dequeues).
type QueueOutput struct {
	Val uint64
	OK  bool
}

// queueState is an immutable FIFO snapshot.
type queueState struct {
	items string // encoded, comma-separated
}

func queuePush(s queueState, v uint64) queueState {
	if s.items == "" {
		return queueState{items: fmt.Sprintf("%d", v)}
	}
	return queueState{items: s.items + "," + fmt.Sprintf("%d", v)}
}

func queuePop(s queueState) (uint64, queueState, bool) {
	if s.items == "" {
		return 0, s, false
	}
	head := s.items
	rest := ""
	if i := strings.IndexByte(s.items, ','); i >= 0 {
		head, rest = s.items[:i], s.items[i+1:]
	}
	var v uint64
	fmt.Sscanf(head, "%d", &v)
	return v, queueState{items: rest}, true
}

// QueueModel returns the sequential FIFO specification. Queue histories are
// not partitionable; keep them small.
func QueueModel() Model {
	return Model{
		Init: func() any { return queueState{} },
		Step: func(state, input, output any) (bool, any) {
			s := state.(queueState)
			in := input.(QueueInput)
			switch in.Op {
			case OpEnqueue:
				return true, queuePush(s, in.Val)
			case OpDequeue:
				out := output.(QueueOutput)
				v, rest, ok := queuePop(s)
				if out.OK {
					return ok && v == out.Val, rest
				}
				return !ok, s
			}
			return false, s
		},
		Key: func(state any) string { return state.(queueState).items },
	}
}

// Stack operations for StackModel histories.
const (
	OpPush = iota
	OpPop
)

// StackInput is the input of one stack operation.
type StackInput struct {
	Op  int
	Val uint64
}

// StackOutput is the observed result (for pops).
type StackOutput struct {
	Val uint64
	OK  bool
}

type stackState struct {
	items string
}

// StackModel returns the sequential LIFO specification.
func StackModel() Model {
	return Model{
		Init: func() any { return stackState{} },
		Step: func(state, input, output any) (bool, any) {
			s := state.(stackState)
			in := input.(StackInput)
			switch in.Op {
			case OpPush:
				if s.items == "" {
					return true, stackState{items: fmt.Sprintf("%d", in.Val)}
				}
				return true, stackState{items: s.items + "," + fmt.Sprintf("%d", in.Val)}
			case OpPop:
				out := output.(StackOutput)
				if s.items == "" {
					return !out.OK, s
				}
				i := strings.LastIndexByte(s.items, ',')
				top := s.items[i+1:]
				rest := ""
				if i >= 0 {
					rest = s.items[:i]
				}
				var v uint64
				fmt.Sscanf(top, "%d", &v)
				if out.OK {
					return v == out.Val, stackState{items: rest}
				}
				return false, s
			}
			return false, s
		},
		Key: func(state any) string { return state.(stackState).items },
	}
}
