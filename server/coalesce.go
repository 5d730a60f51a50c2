// Server-side request coalescing: the ingest path stages the parsed
// requests of a pipeline batch instead of executing them one at a time,
// recognizes runs of same-kind commands (GET/MGET, SET/MSET, DEL/MDEL),
// and drives each run through one call of the store's hash-level
// multi-key APIs — so a burst of 64 pipelined GETs executes exactly as if
// the client had sent one 64-key MGET frame. The store runs a multi-key
// call as a loop over its point ops, so what a run saves is the per-request
// dispatch around the store (one call per run instead of one per request,
// and the eviction hand lent once per write run), not any per-key cost
// inside it.
//
// Coalescing is invisible on the wire. Replies are emitted in exact
// arrival order with byte-identical framing to the scalar path; commands
// outside the three families (LEN, STATS, PING, …) act as run barriers,
// executing only after the staged run has drained. The staging window
// never outlives the pipeline batch: when the read buffer drains (the
// client is waiting) the run executes and the replies flush, so a
// request/response client is never delayed behind an open run.
//
// Keys are hashed out of the parser's []byte views at staging time
// (HashKeyBytes) and retain nothing. SET values are staged as string
// views of those same bytes: the store copies each value into its own
// object when the run drains and keeps nothing of the argument, so the
// one copy a value takes is wire buffer → stored object. A staged view is
// therefore live until its run drains, and the engine drains before the
// read buffer moves (connState.pump).

package server

import "unsafe"

// runKind classifies a staged run by command family.
type runKind uint8

const (
	runNone  runKind = iota
	runRead          // GET / MGET
	runWrite         // SET / MSET
	runDel           // DEL / MDEL
)

// stagedReq records one staged request's reply framing: how many of the
// run's keys it carries and whether it answers with multi-key framing
// (MGET's array, MSET/MDEL's aggregate count) or a scalar reply.
type stagedReq struct {
	n     int
	multi bool
}

// coalescer is one connection's staging state plus the reusable
// execution scratch. All slices grow to the run bound (WithCoalesce cap
// plus one request's maxArgs) and are reused batch after batch, so the
// coalesced hot path allocates nothing in steady state beyond the one
// object the store builds per value written.
type coalescer struct {
	kind   runKind
	reqs   []stagedReq
	hashes []uint64 // staged keys of the run, in arrival order
	vals   []string // staged SET/MSET values, parallel to hashes: views into the conn's read buffer

	// Execution scratch.
	outVals  []string
	flags    []bool
	pageKeys []uint64 // RANGE/SCAN page keys; the page's values use outVals
}

// keys returns how many keys the open run has staged.
func (co *coalescer) keys() int { return len(co.hashes) }

// reset clears the staging state after a drain. Values are cleared so no
// stale view pins a read buffer the connection has since traded away.
func (co *coalescer) reset() {
	co.kind = runNone
	co.reqs = co.reqs[:0]
	clear(co.vals)
	co.hashes = co.hashes[:0]
	co.vals = co.vals[:0]
}

// stage opens (or extends) a run of kind k and records one request
// carrying n of the keys the caller appended to co.hashes/co.vals. The
// caller must have drained any run of a different kind first.
func (co *coalescer) stage(k runKind, n int, multi bool) {
	co.kind = k
	co.reqs = append(co.reqs, stagedReq{n: n, multi: multi})
}

// drain executes the staged run, appending every reply to out in
// arrival order (spilling when out outgrows the buffer budget, as the
// scalar path does), and resets the stage. A one-key M* call is exactly
// the scalar store call, so a run of one request costs what executing it
// alone would. Only runs that merged two or more requests count toward
// the coalescing stats.
func (cs *connState) drain() error {
	co, s := cs.co, cs.srv
	if co.kind == runNone {
		return nil
	}
	if len(co.reqs) >= 2 {
		s.coalescedBatches.Add(1)
		s.coalescedKeys.Add(uint64(co.keys()))
	}
	var err error
	switch co.kind {
	case runRead:
		err = cs.drainRead()
	case runWrite:
		err = cs.drainWrite()
	case runDel:
		err = cs.drainDel()
	}
	co.reset()
	return err
}

// scratch sizes the coalescer's execution slices for n keys.
func (co *coalescer) scratch(n int) ([]string, []bool) {
	if cap(co.outVals) < n {
		co.outVals = make([]string, n)
		co.flags = make([]bool, n)
	}
	return co.outVals[:n], co.flags[:n]
}

// page sizes the scratch for an n-entry RANGE/SCAN page: the ordered
// family are barriers, so the run scratch is free whenever they execute.
// Like scratch's, the value slots must be cleared after the reply.
func (co *coalescer) page(n int) ([]uint64, []string) {
	if cap(co.pageKeys) < n {
		co.pageKeys = make([]uint64, n)
	}
	vals, _ := co.scratch(n)
	return co.pageKeys[:n], vals
}

// spill writes out once it outgrows the buffer budget, preserving TCP
// backpressure under replies much larger than requests.
func (cs *connState) spill() error {
	if len(cs.out) < cs.srv.opts.bufSize {
		return nil
	}
	return cs.write()
}

func (cs *connState) drainRead() error {
	co, s := cs.co, cs.srv
	vals, found := co.scratch(co.keys())
	s.st.MGetHashed(co.hashes, vals, found)
	i := 0
	for _, rq := range co.reqs {
		if rq.multi {
			cs.out = appendArrayHeader(cs.out, rq.n)
		}
		for j := 0; j < rq.n; j++ {
			if found[i] {
				cs.hits++
				cs.out = appendBulk(cs.out, vals[i])
			} else {
				cs.misses++
				cs.out = appendNilBulk(cs.out)
			}
			i++
			if err := cs.spill(); err != nil {
				return err
			}
		}
	}
	clear(vals) // don't pin values in the reusable scratch
	return nil
}

func (cs *connState) drainWrite() error {
	co, s := cs.co, cs.srv
	_, replaced := co.scratch(co.keys())
	s.st.MSetHashed(co.hashes, co.vals, replaced)
	i := 0
	for _, rq := range co.reqs {
		if rq.multi {
			inserted := int64(0)
			for j := 0; j < rq.n; j++ {
				if !replaced[i] {
					inserted++
				}
				i++
			}
			cs.out = appendInt(cs.out, inserted)
		} else {
			cs.out = appendInt(cs.out, b2i(replaced[i]))
			i++
		}
		if err := cs.spill(); err != nil {
			return err
		}
	}
	return nil
}

func (cs *connState) drainDel() error {
	co, s := cs.co, cs.srv
	_, found := co.scratch(co.keys())
	s.st.MDelHashed(co.hashes, found)
	i := 0
	for _, rq := range co.reqs {
		if rq.multi {
			deleted := int64(0)
			for j := 0; j < rq.n; j++ {
				if found[i] {
					deleted++
				}
				i++
			}
			cs.out = appendInt(cs.out, deleted)
		} else {
			cs.out = appendInt(cs.out, b2i(found[i]))
			i++
		}
		if err := cs.spill(); err != nil {
			return err
		}
	}
	return nil
}

// stageKeys maps every key view through the key codec into the run's key
// stream. On an unrepresentable key (ordered server, non-decimal bytes)
// the request's keys are rolled back and false returned: the run keeps
// only fully staged requests, so the dispatcher can answer a per-request
// error without corrupting the reply accounting.
func (s *Server) stageKeys(co *coalescer, keys [][]byte) bool {
	base := len(co.hashes)
	for _, k := range keys {
		h, ok := s.key(k)
		if !ok {
			co.hashes = co.hashes[:base]
			return false
		}
		co.hashes = append(co.hashes, h)
	}
	return true
}

// stagePairs maps every even arg as a key and stages every odd arg as its
// value — a view, not a copy (see view). Same rollback contract as
// stageKeys.
func (s *Server) stagePairs(co *coalescer, args [][]byte) bool {
	baseH, baseV := len(co.hashes), len(co.vals)
	for i := 0; i < len(args); i += 2 {
		h, ok := s.key(args[i])
		if !ok {
			co.hashes = co.hashes[:baseH]
			clear(co.vals[baseV:])
			co.vals = co.vals[:baseV]
			return false
		}
		co.hashes = append(co.hashes, h)
		co.vals = append(co.vals, view(args[i+1]))
	}
	return true
}

// view is a value argument as a string over the parser's bytes, with no
// copy. It is valid only until the read buffer next moves; the store's
// write paths copy what they are given and retain nothing, so a view may
// be handed to them and must go nowhere else.
func view(arg []byte) string {
	return unsafe.String(unsafe.SliceData(arg), len(arg))
}
