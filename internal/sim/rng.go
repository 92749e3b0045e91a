// Package sim provides the deterministic simulation kernel shared by every
// APPROX-NoC component: a seeded pseudo-random number generator and a cycle
// clock. Determinism matters here — every experiment in the paper
// reproduction must yield identical numbers run-to-run so the benchmark
// harness output is stable.
package sim

import (
	"math"
	"math/bits"
)

// Rand is a small, fast, deterministic PRNG (splitmix64-seeded
// xoshiro256**). It is deliberately NOT safe for concurrent use — the
// state advances unguarded on every draw — and must never be shared
// between goroutines: each simulated component (and each concurrent
// client in tests) owns its own seeded stream, which is also what keeps
// runs reproducible. For parallel serving, follow the shard-ownership
// model of internal/serve rather than guarding a shared stream.
type Rand struct {
	s [4]uint64
}

// NewRand returns a generator seeded from seed via splitmix64, which
// guarantees a well-mixed non-zero state for any seed, including 0.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

// Uint64 returns the next value in the stream: one xoshiro256** step,
// written as a single state assignment so that the step, and Float64,
// Bool and Hit on top of it, stay within the inliner's budget (Bool sits
// exactly at it). Every injection draw of every tile each cycle and every
// word of every generated block goes through here.
func (r *Rand) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2]^r.s[0], r.s[3]^r.s[1]
	r.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Uint32 returns the high 32 bits of the next value.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method over 64 bits.
	un := uint64(n)
	for {
		hi, lo := bits.Mul64(r.Uint64(), un)
		if lo >= un || lo >= (-un)%un {
			return int(hi)
		}
	}
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Odds is a probability scaled to Hit's 53-bit draw: Hit(NewOdds(p))
// answers exactly as Bool(p) from the same one draw, with no float
// arithmetic per call.
type Odds uint64

// NewOdds returns the odds of probability p: ceil(p·2⁵³), which is 0 for
// p <= 0 or NaN and 2⁵³ for p >= 1. Float64 draws a multiple of 2⁻⁵³, and
// u/2⁵³ < p exactly when the integer u is below ceil(p·2⁵³).
func NewOdds(p float64) Odds {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return Odds(math.Ceil(p * (1 << 53)))
}

// Hit returns true with the probability o was made from.
func (r *Rand) Hit(o Odds) bool { return r.Uint64()>>11 < uint64(o) }
