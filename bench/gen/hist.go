package gen

import "math/bits"

const (
	// histSubBits gives 64 buckets per power of two: a bucket is at most
	// 1/64 = 1.6% wide, well inside the spread of any latency it records.
	histSubBits = 6
	histSub     = 1 << histSubBits
	histBuckets = 40 * histSub // values up to 2^40 ns, about 18 minutes
)

// Hist is a fixed log-bucket histogram of nanosecond durations. Recording
// is an index computation and an increment: no allocation, so a client's
// memory does not grow with the number of samples.
type Hist struct {
	counts [histBuckets]uint64
	n      uint64
	max    uint64
}

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	shift := bits.Len64(v) - 1 - histSubBits
	return min((shift+1)<<histSubBits+int(v>>shift)-histSub, histBuckets-1)
}

// histBounds returns the smallest value of bucket i and the bucket's width.
func histBounds(i int) (lo, width uint64) {
	if i < histSub {
		return uint64(i), 1
	}
	shift := i>>histSubBits - 1
	return uint64(i&(histSub-1)+histSub) << shift, 1 << shift
}

// Record adds one sample.
func (h *Hist) Record(ns int64) {
	v := uint64(max(ns, 0))
	h.counts[histIndex(v)]++
	h.n++
	h.max = max(h.max, v)
}

// Merge adds every sample of o.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.max = max(h.max, o.max)
}

// Count is the number of samples recorded.
func (h *Hist) Count() uint64 { return h.n }

// Max is the largest sample, exact.
func (h *Hist) Max() uint64 { return h.max }

// Quantile returns the q-quantile in nanoseconds, interpolated linearly
// inside the bucket that holds it; 0 with no samples.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	seen := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < seen+float64(c) {
			lo, width := histBounds(i)
			return float64(lo) + float64(width)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return float64(h.max)
}
