package gen

import (
	"encoding/binary"
	"strconv"
)

// Kind is a command family of the generated mix.
type Kind uint8

const (
	Get Kind = iota
	Set
	Del
	SetEX
	Range
	NumKinds
)

// Op is one generated command: a kind and the index of its key in the
// workload's key population.
type Op struct {
	Kind Kind
	Key  uint32
}

// Dist names the key distribution of a workload.
type Dist uint8

const (
	// Zipf draws YCSB-zipfian ranks with exponent Theta; the ranks are
	// scattered over the key population so popular keys are not neighbours.
	Zipf Dist = iota
	// Hotspot sends HotOpsPct of the draws uniformly to the first
	// HotKeysPct of the population and the rest uniformly to the remainder.
	Hotspot
	// Uniform draws every key with equal probability.
	Uniform
)

// Workload is everything the generator needs to know about one traffic
// mix: the key population, the value size, the command shares, the key
// distribution and the pipeline depth.
type Workload struct {
	Name string
	// Ordered selects the decimal key codec of an ordered server (key i is
	// the number (i+1)*KeyStride); otherwise key i is "user:<i>".
	Ordered  bool
	Keys     uint32
	ValueLen int
	// Depth is how many commands one request unit pipelines.
	Depth int
	// Pct is the share of each command kind in percent; it sums to 100.
	Pct  [NumKinds]int
	Dist Dist
	// Theta is the zipfian exponent; HotKeysPct and HotOpsPct shape Hotspot.
	Theta                 float64
	HotKeysPct, HotOpsPct int
	// RangeLen is the LIMIT of a RANGE and the number of keys its bounds
	// span; TTLSecs is the lifetime a SETEX carries.
	RangeLen int
	TTLSecs  int
	// PreloadPct is the share of the population present before the run.
	// With SET and DEL in the mix a key is present with probability
	// SET/(SET+DEL) in the steady state; preloading that share makes the
	// hit rate stationary from the first request.
	PreloadPct int
	// Refill makes a GET that misses queue a SET of the same key into the
	// connection's next request unit, as a read-through cache client does.
	Refill bool
}

// KeyStride spaces the ordered workload's keys so a RANGE over a span has
// gaps to skip.
const KeyStride = 4

// MaxValueLen bounds ValueLen; the verifier regenerates values on its stack.
const MaxValueLen = 256

// Preloaded reports whether key i belongs to the preloaded share. The
// choice is a fixed function of the key, not of the seed, so set-up does
// the same work on every run.
func (w *Workload) Preloaded(i uint32) bool {
	return Mix64(uint64(i)+1)%100 < uint64(w.PreloadPct)
}

// OrderedKey is the numeric key of population index i on an ordered server.
func OrderedKey(i uint32) uint64 { return (uint64(i) + 1) * KeyStride }

// AppendKey appends the wire form of key i.
func (w *Workload) AppendKey(dst []byte, i uint32) []byte {
	if w.Ordered {
		return strconv.AppendUint(dst, OrderedKey(i), 10)
	}
	dst = append(dst, "user:"...)
	return strconv.AppendUint(dst, uint64(i), 10)
}

// AppendValue appends the value every SET of key i carries. It is a pure
// function of the key, so a GET reply can be verified without remembering
// what was written: it is either a miss or exactly this.
func (w *Workload) AppendValue(dst []byte, i uint32) []byte {
	var word [8]byte
	for n := 0; n < w.ValueLen; n += 8 {
		binary.LittleEndian.PutUint64(word[:], Mix64(uint64(i)<<8|uint64(n>>3)))
		dst = append(dst, word[:min(8, w.ValueLen-n)]...)
	}
	return dst
}

func appendBulk(dst, arg []byte) []byte {
	dst = append(dst, '$')
	dst = strconv.AppendUint(dst, uint64(len(arg)), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, arg...)
	return append(dst, '\r', '\n')
}

func appendHeader(dst []byte, argc int, cmd string) []byte {
	dst = append(dst, '*')
	dst = strconv.AppendUint(dst, uint64(argc), 10)
	dst = append(dst, '\r', '\n')
	return appendBulk(dst, []byte(cmd))
}

// AppendCommand appends op as one multibulk request.
func (w *Workload) AppendCommand(dst []byte, op Op) []byte {
	var kb [24]byte
	var vb [MaxValueLen]byte
	key := w.AppendKey(kb[:0], op.Key)
	switch op.Kind {
	case Get:
		return appendBulk(appendHeader(dst, 2, "GET"), key)
	case Del:
		return appendBulk(appendHeader(dst, 2, "DEL"), key)
	case Set:
		dst = appendBulk(appendHeader(dst, 3, "SET"), key)
		return appendBulk(dst, w.AppendValue(vb[:0], op.Key))
	case SetEX:
		dst = appendBulk(appendHeader(dst, 4, "SETEX"), key)
		dst = appendBulk(dst, strconv.AppendUint(kb[:0], uint64(w.TTLSecs), 10))
		return appendBulk(dst, w.AppendValue(vb[:0], op.Key))
	case Range:
		// The lower bound is the key itself in the ordered codec.
		_, hi := w.RangeBounds(op.Key)
		dst = appendBulk(appendHeader(dst, 5, "RANGE"), key)
		dst = appendBulk(dst, strconv.AppendUint(kb[:0], hi, 10))
		dst = appendBulk(dst, []byte("LIMIT"))
		return appendBulk(dst, strconv.AppendUint(kb[:0], uint64(w.RangeLen), 10))
	}
	panic("gen: unknown op kind")
}

// RangeBounds returns the inclusive bounds of a RANGE starting at key i:
// a span that holds RangeLen keys when every one of them is present.
func (w *Workload) RangeBounds(i uint32) (lo, hi uint64) {
	lo = OrderedKey(i)
	return lo, lo + uint64(w.RangeLen)*KeyStride - 1
}

// Stream is the seeded sequence of ops one connection sends. The request
// ring and the per-layer replay both read it, so they see the same ops.
type Stream struct {
	w    *Workload
	rng  *Rand
	zipf *zipf
	cum  [NumKinds]uint64
}

// NewStream returns connection conn's op stream for a run seeded with seed.
func NewStream(w *Workload, seed uint64, conn int) *Stream {
	s := &Stream{w: w, rng: NewRand(Mix64(seed) + uint64(conn))}
	if w.Dist == Zipf {
		s.zipf = newZipf(uint64(w.Keys), w.Theta)
	}
	sum := uint64(0)
	for k, p := range w.Pct {
		sum += uint64(p)
		s.cum[k] = sum
	}
	if sum != 100 {
		panic("gen: workload " + w.Name + ": command shares do not sum to 100")
	}
	return s
}

// Next draws the next op.
func (s *Stream) Next() Op {
	p := s.rng.Intn(100)
	kind := Get
	for p >= s.cum[kind] {
		kind++
	}
	return Op{Kind: kind, Key: s.key()}
}

func (s *Stream) key() uint32 {
	n := uint64(s.w.Keys)
	switch s.w.Dist {
	case Zipf:
		// An odd multiplier is a bijection modulo a power of two and close
		// to one otherwise: it scatters the popular ranks.
		return uint32(s.zipf.rank(s.rng) * 0x9E3779B1 % n)
	case Hotspot:
		hot := n * uint64(s.w.HotKeysPct) / 100
		if s.rng.Intn(100) < uint64(s.w.HotOpsPct) {
			return uint32(s.rng.Intn(hot))
		}
		return uint32(hot + s.rng.Intn(n-hot))
	}
	return uint32(s.rng.Intn(n))
}
