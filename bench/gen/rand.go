// Package gen is the benchmark's own load generator: seeded key draws, a
// pre-encoded RESP request ring per connection, a pipelining client that
// verifies every reply, and a fixed-size latency histogram.
//
// It imports nothing from the repository it measures. The draws, the
// encoder and the client are copies on purpose: a later change to
// internal/rng, internal/workload or server.Client must not be able to
// move the benchmark's numbers.
package gen

import (
	"math"
	"math/bits"
)

// Rand is a splitmix64 sequence: one add and one finalizer per draw.
type Rand struct{ s uint64 }

// NewRand seeds a sequence; connection c of a run with seed s uses
// NewRand(Mix64(s) + c) so the connections draw independent streams.
func NewRand(seed uint64) *Rand { return &Rand{s: seed} }

// Mix64 is the splitmix64 finalizer.
func Mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return Mix64(r.s)
}

// Intn returns a value in [0, n).
func (r *Rand) Intn(n uint64) uint64 {
	hi, _ := bits.Mul64(r.Uint64(), n)
	return hi
}

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// zipf draws ranks in [0, n) with YCSB's zipfian construction (Gray et
// al., "Quickly Generating Billion-Record Synthetic Databases"); rank 0 is
// the most popular.
type zipf struct {
	n                        uint64
	theta, zetaN, alpha, eta float64
}

func newZipf(n uint64, theta float64) *zipf {
	zeta := func(n uint64) float64 {
		sum := 0.0
		for i := uint64(1); i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	z := &zipf{n: n, theta: theta, zetaN: zeta(n), alpha: 1 / (1 - theta)}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetaN)
	return z
}

func (z *zipf) rank(r *Rand) uint64 {
	u := r.Float64()
	uz := u * z.zetaN
	switch {
	case uz < 1:
		return 0
	case uz < 1+math.Pow(0.5, z.theta):
		return 1
	}
	rank := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if rank >= z.n {
		rank = z.n - 1
	}
	return rank
}
