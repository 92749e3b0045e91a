package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

func TestNewRandDeterministic(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: %d != %d", i, av, bv)
		}
	}
}

func TestNewRandSeedsDiffer(t *testing.T) {
	a := NewRand(1)
	b := NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams from different seeds collided %d/100 times", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := NewRand(0)
	if r.s == [4]uint64{} {
		t.Fatal("zero seed produced all-zero state")
	}
	// xoshiro from an all-zero state would return 0 forever.
	zeros := 0
	for i := 0; i < 64; i++ {
		if r.Uint64() == 0 {
			zeros++
		}
	}
	if zeros > 1 {
		t.Fatalf("got %d zero draws in 64", zeros)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRand(7)
	for _, n := range []int{1, 2, 3, 10, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewRand(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := NewRand(99)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	expect := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expect) > 0.05*expect {
			t.Fatalf("bucket %d count %d deviates >5%% from %g", i, c, expect)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(3)
	sum := 0.0
	const draws = 50000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean %g far from 0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRand(11)
	const draws = 100000
	var sum, sumsq float64
	for i := 0; i < draws; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / draws
	variance := sumsq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %g too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %g too far from 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRand(5)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) len %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

// TestIntnDrawsPinned pins the first 64 Intn draws for three seeds and
// five bounds, from a small one through one past 32 bits to 2⁶²+1, which
// rejects about a quarter of the raw draws, as an FNV-1a hash of the
// draws: the simulator's goldens are functions of this sequence, so a
// change to Intn's arithmetic must not move a single draw.
func TestIntnDrawsPinned(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		n    int
		hash uint64
	}{
		{1, 7, 0x9f873bbb18096005},
		{1, 32, 0x457ef51c50ff9779},
		{1, 1000, 0xc3bd257254738145},
		{1, 1 << 40, 0xe67a3c0b2d8595ce},
		{1, 1<<62 + 1, 0x7379680b1a7e6136},
		{42, 7, 0x8bf4c47680671247},
		{42, 32, 0x1d3cc425206bbe00},
		{42, 1000, 0xc53fe754c83188a4},
		{42, 1 << 40, 0x9bdd7f820fedd115},
		{42, 1<<62 + 1, 0xc253cc8b59003581},
		{0xDEADBEEF, 7, 0xf9a29037b0ccc805},
		{0xDEADBEEF, 32, 0x49219a52a63df9a6},
		{0xDEADBEEF, 1000, 0x1b8e816f2e9d41d5},
		{0xDEADBEEF, 1 << 40, 0x9c65e1faa6c37cd7},
		{0xDEADBEEF, 1<<62 + 1, 0x13b20174fe2b0c39},
	} {
		r := NewRand(c.seed)
		h := fnv.New64a()
		var b [8]byte
		for i := 0; i < 64; i++ {
			binary.LittleEndian.PutUint64(b[:], uint64(r.Intn(c.n)))
			h.Write(b[:])
		}
		if got := h.Sum64(); got != c.hash {
			t.Errorf("seed %#x, Intn(%d): draws hash to %#x, want %#x", c.seed, c.n, got, c.hash)
		}
	}
}

func TestClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatal("fresh clock not at zero")
	}
	for i := 0; i < 10; i++ {
		c.Tick()
	}
	if c.Now() != 10 {
		t.Fatalf("clock at %d after 10 ticks", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatal("reset did not rewind clock")
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRand(21)
	const draws = 50000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) frequency %g", got)
	}
}

// hitMatchesBool draws 10⁵ times from two identically seeded streams, one
// through Bool(p) and one through Hit(NewOdds(p)), and reports the first
// draw whose answers differ; the streams must also stay in step.
func hitMatchesBool(p float64) error {
	a, b := NewRand(77), NewRand(77)
	o := NewOdds(p)
	for i := 0; i < 100000; i++ {
		if x, y := a.Bool(p), b.Hit(o); x != y {
			return fmt.Errorf("p=%g draw %d: Bool %v, Hit %v", p, i, x, y)
		}
	}
	if a.Uint64() != b.Uint64() {
		return fmt.Errorf("p=%g: the streams fell out of step", p)
	}
	return nil
}

func TestHitMatchesBool(t *testing.T) {
	for _, p := range []float64{0, -0.1, math.NaN(), 1, 1.5, 0x1p-53, 1 - 0x1p-53, 0.2, 0.25, 0.055 * 3, 0.02 / 3} {
		if err := hitMatchesBool(p); err != nil {
			t.Error(err)
		}
	}
	// The edges map exactly: 53-bit draws of 0 and 2⁵³-1 split them.
	for _, c := range []struct {
		p    float64
		want Odds
	}{
		{0, 0}, {-0.1, 0}, {math.NaN(), 0}, {math.Inf(-1), 0},
		{0x1p-60, 1}, {0x1p-53, 1}, {0.5, 1 << 52}, {1 - 0x1p-53, 1<<53 - 1},
		{1, 1 << 53}, {1.5, 1 << 53}, {math.Inf(1), 1 << 53},
	} {
		if got := NewOdds(c.p); got != c.want {
			t.Errorf("NewOdds(%g) = %d, want %d", c.p, got, c.want)
		}
	}
}

// refStep is the textbook xoshiro256** step (Blackman and Vigna), kept
// here as the reference Uint64's single-assignment form must match.
func refStep(s *[4]uint64) uint64 {
	rotl := func(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func TestRandStepMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 16; seed++ {
		r := NewRand(seed * 0x9e3779b97f4a7c15)
		ref := r.s
		for i := 0; i < 100000; i++ {
			if got, want := r.Uint64(), refStep(&ref); got != want || r.s != ref {
				t.Fatalf("seed %d draw %d: Uint64 %#x state %x, reference %#x state %x", seed, i, got, r.s, want, ref)
			}
		}
	}
}
