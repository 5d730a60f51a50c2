package main

import (
	"runtime"
	"time"

	"github.com/optik-go/optik/bench/gen"
	"github.com/optik-go/optik/ds/hashmap"
	"github.com/optik-go/optik/ds/skiplist"
	"github.com/optik-go/optik/store"
)

// replayBatch is the keys per call of the batched replay: the depth at
// which the server's coalescer hands the store full runs.
const replayBatch = 64

// rung is one layer's public API reduced to the workload's command kinds.
// Every rung pays the same closure call, so it cancels in the differences
// between rungs.
type rung struct {
	get  func(i uint32) bool
	set  func(i uint32)
	del  func(i uint32)
	scan func(i uint32) int // keys returned; nil on the hash spine
	// setex defaults to set where the layer has no TTL.
	setex func(i uint32)
}

// rungTime is what replaying the stream through one rung cost. A RANGE is
// one op in nsPerOp; scanNsPerKey divides the RANGEs' time by the keys
// they returned.
type rungTime struct {
	nsPerOp, allocsPerOp, scanNsPerKey float64
}

// layers is the replay's result: the rung at the bottom of the workload's
// spine (hash table or skip list), the sharded index on it, the string
// store on that, and the string store again through its batch calls.
type layers struct {
	ordered              bool
	base, index, strings rungTime
	batchNsPerKey        float64
	// bytesPerUserByte is the heap the preloaded string store holds per
	// byte of key and value stored in it.
	bytesPerUserByte float64
	resizes, buckets int
}

func (l *layers) hashmap() rungTime {
	if l.ordered {
		return rungTime{}
	}
	return l.base
}

func (l *layers) skiplist() rungTime {
	if l.ordered {
		return l.base
	}
	return rungTime{}
}

// preload stores the workload's preloaded share through set.
func preload(w *workload, set func(i uint32)) {
	for i := range w.Keys {
		if w.Preloaded(i) {
			set(i)
		}
	}
}

// timeRung replays ops through r, single-threaded: first the point ops in
// stream order, then the RANGEs, so that the scans can be timed as a block
// without a clock read per op.
func timeRung(w *workload, ops []gen.Op, r rung) rungTime {
	if r.setex == nil {
		r.setex = r.set
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	t0 := time.Now()
	for _, op := range ops {
		switch op.Kind {
		case gen.Get:
			if !r.get(op.Key) && w.Refill {
				r.set(op.Key)
			}
		case gen.Set:
			r.set(op.Key)
		case gen.SetEX:
			r.setex(op.Key)
		case gen.Del:
			r.del(op.Key)
		}
	}
	elapsed := time.Since(t0)
	var scanTime time.Duration
	pairs := 0
	if w.Pct[gen.Range] > 0 {
		t1 := time.Now()
		for _, op := range ops {
			if op.Kind == gen.Range {
				pairs += r.scan(op.Key)
			}
		}
		scanTime = time.Since(t1)
	}
	runtime.ReadMemStats(&ms)
	n := float64(len(ops))
	return rungTime{
		nsPerOp:      float64(elapsed+scanTime) / n,
		allocsPerOp:  float64(ms.Mallocs-mallocs) / n,
		scanNsPerKey: ratio(float64(scanTime), float64(pairs)),
	}
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// replay feeds the first n ops connection 0 sends over the wire into each
// layer under the server.
func replay(w *workload, seed uint64, n int) *layers {
	ops := streamOps(w, seed, n)
	// The timed ops take their values from a small pool of strings: the
	// server makes the string a SET stores, so allocating one per op here
	// would charge the layers for the wire's work. Only the preload of the
	// string store, whose heap is measured, stores a string of its own
	// per key (fresh).
	vals := make([]string, 1024)
	for i := range vals {
		vals[i] = fresh(w, uint32(i))
	}
	val := func(i uint32) string { return vals[i%uint32(len(vals))] }
	if w.Ordered {
		return replayOrdered(w, ops, val)
	}
	return replayHash(w, ops, val)
}

// streamOps returns the first n ops connection 0 sends: the ops of its
// ring, lap after lap.
func streamOps(w *workload, seed uint64, n int) []gen.Op {
	s := gen.NewStream(&w.Workload, seed, 0)
	ops := make([]gen.Op, n)
	for i := range ops {
		if lap := w.ringLen(); i < lap {
			ops[i] = s.Next()
		} else {
			ops[i] = ops[i-lap]
		}
	}
	return ops
}

func fresh(w *workload, i uint32) string { return string(w.AppendValue(nil, i)) }

func replayHash(w *workload, ops []gen.Op, val func(uint32) string) *layers {
	// The server hashes the wire key once per command; the rungs start
	// below that, from the hash.
	hk := make([]uint64, w.Keys)
	var kb []byte
	userBytes := 0
	for i := range hk {
		kb = w.AppendKey(kb[:0], uint32(i))
		hk[i] = store.HashKeyBytes(kb)
		if w.Preloaded(uint32(i)) {
			userBytes += len(kb) + w.ValueLen
		}
	}
	lay := &layers{}

	m := hashmap.NewResizable(1024)
	r := rung{
		get: func(i uint32) bool { _, ok := m.Search(hk[i]); return ok },
		set: func(i uint32) { m.Upsert(hk[i], uint64(i)) },
		del: func(i uint32) { m.Delete(hk[i]) },
	}
	preload(w, r.set)
	lay.base = timeRung(w, ops, r)
	lay.resizes, lay.buckets = m.Resizes(), m.Buckets()

	idx := store.New()
	r = rung{
		get: func(i uint32) bool { _, ok := idx.Get(hk[i]); return ok },
		set: func(i uint32) { idx.Set(hk[i], uint64(i)) },
		del: func(i uint32) { idx.Del(hk[i]) },
	}
	preload(w, r.set)
	lay.index = timeRung(w, ops, r)
	idx.Close()

	heap0 := heapAlloc()
	st := store.NewStrings(w.storeOptions()...)
	defer st.Close()
	r = rung{
		get:   func(i uint32) bool { _, ok := st.GetHashed(hk[i]); return ok },
		set:   func(i uint32) { st.SetHashed(hk[i], val(i)) },
		del:   func(i uint32) { st.DelHashed(hk[i]) },
		setex: func(i uint32) { st.SetEXHashed(hk[i], val(i), int64(w.TTLSecs)) },
	}
	preload(w, func(i uint32) { st.SetHashed(hk[i], fresh(w, i)) })
	if w.budgetPct == 0 {
		lay.bytesPerUserByte = float64(heapAlloc()-heap0) / float64(userBytes)
	} else {
		// A governed store holds what its budget lets it, not the preload.
		resident := float64(st.Len()) / float64(w.Keys) * float64(userBytes)
		lay.bytesPerUserByte = float64(heapAlloc()-heap0) / resident
	}
	lay.strings = timeRung(w, ops, r)

	lay.batchNsPerKey = timeBatches(w, ops, func(i uint32) uint64 { return hk[i] }, val, batcher{
		mget: st.MGetHashed,
		mset: func(keys []uint64, vals []string, replaced []bool) { st.MSetHashed(keys, vals, replaced) },
		mdel: func(keys []uint64, found []bool) { st.MDelHashed(keys, found) },
	})
	return lay
}

func replayOrdered(w *workload, ops []gen.Op, val func(uint32) string) *layers {
	lay := &layers{ordered: true}
	scanKeys := make([]uint64, w.RangeLen)
	scanSlots := make([]uint64, w.RangeLen)
	scanVals := make([]string, w.RangeLen)
	userBytes := 0
	var kb []byte
	for i := range w.Keys {
		if w.Preloaded(i) {
			kb = w.AppendKey(kb[:0], i)
			userBytes += len(kb) + w.ValueLen
		}
	}

	sl := skiplist.NewOptik2()
	r := rung{
		get: func(i uint32) bool { _, ok := sl.Search(gen.OrderedKey(i)); return ok },
		set: func(i uint32) { sl.Upsert(gen.OrderedKey(i), uint64(i)) },
		del: func(i uint32) { sl.Delete(gen.OrderedKey(i)) },
		scan: func(i uint32) int {
			lo, hi := w.RangeBounds(i)
			return sl.ScanRange(lo, hi, scanKeys, scanSlots)
		},
	}
	preload(w, r.set)
	lay.base = timeRung(w, ops, r)

	idx := store.NewOrdered(w.storeOptions()...)
	r = rung{
		get: func(i uint32) bool { _, ok := idx.Get(gen.OrderedKey(i)); return ok },
		set: func(i uint32) { idx.Set(gen.OrderedKey(i), uint64(i)) },
		del: func(i uint32) { idx.Del(gen.OrderedKey(i)) },
		scan: func(i uint32) int {
			lo, hi := w.RangeBounds(i)
			return idx.Scan(lo, hi, scanKeys, scanSlots)
		},
	}
	preload(w, r.set)
	lay.index = timeRung(w, ops, r)
	idx.Close()

	heap0 := heapAlloc()
	st := store.NewSortedStrings(w.storeOptions()...)
	defer st.Close()
	r = rung{
		get: func(i uint32) bool { _, ok := st.Get(gen.OrderedKey(i)); return ok },
		set: func(i uint32) { st.Set(gen.OrderedKey(i), val(i)) },
		del: func(i uint32) { st.Del(gen.OrderedKey(i)) },
		scan: func(i uint32) int {
			lo, hi := w.RangeBounds(i)
			return st.Scan(lo, hi, scanKeys, scanVals)
		},
	}
	preload(w, func(i uint32) { st.Set(gen.OrderedKey(i), fresh(w, i)) })
	lay.bytesPerUserByte = float64(heapAlloc()-heap0) / float64(userBytes)
	lay.strings = timeRung(w, ops, r)

	lay.batchNsPerKey = timeBatches(w, ops, gen.OrderedKey, val, batcher{
		mget: st.MGet,
		mset: func(keys []uint64, vals []string, replaced []bool) { st.MSet(keys, vals, replaced) },
		mdel: func(keys []uint64, found []bool) { st.MDel(keys, found) },
	})
	return lay
}

// batcher is a string store's batch calls, hash or sorted.
type batcher struct {
	mget func(keys []uint64, vals []string, found []bool)
	mset func(keys []uint64, vals []string, replaced []bool)
	mdel func(keys []uint64, found []bool)
}

// timeBatches replays the GETs, SETs and DELs of ops through the batch
// calls, replayBatch ops at a time split by kind as the server's coalescer
// splits a pipeline, and returns the time per key. SETEX and RANGE are
// barriers on the wire and never reach a batch call, so they are left out.
func timeBatches(w *workload, ops []gen.Op, key func(uint32) uint64, val func(uint32) string, b batcher) float64 {
	var gets, sets, dels []uint64
	var getIdx []uint32
	var setVals []string
	// A chunk of all-missing GETs refills as many SETs again.
	got, flags := make([]string, replayBatch), make([]bool, 2*replayBatch)
	batched := 0
	t0 := time.Now()
	for rest := ops; len(rest) > 0; {
		chunk := rest[:min(replayBatch, len(rest))]
		rest = rest[len(chunk):]
		gets, getIdx, sets, setVals, dels = gets[:0], getIdx[:0], sets[:0], setVals[:0], dels[:0]
		for _, op := range chunk {
			switch op.Kind {
			case gen.Get:
				gets, getIdx = append(gets, key(op.Key)), append(getIdx, op.Key)
			case gen.Set:
				sets, setVals = append(sets, key(op.Key)), append(setVals, val(op.Key))
			case gen.Del:
				dels = append(dels, key(op.Key))
			}
		}
		b.mget(gets, got, flags)
		if w.Refill {
			for j, ok := range flags[:len(gets)] {
				if !ok {
					sets, setVals = append(sets, gets[j]), append(setVals, val(getIdx[j]))
				}
			}
		}
		b.mset(sets, setVals, flags)
		b.mdel(dels, flags)
		batched += len(gets) + len(sets) + len(dels)
	}
	return ratio(float64(time.Since(t0)), float64(batched))
}
