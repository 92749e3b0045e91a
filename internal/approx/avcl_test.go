package approx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"approxnoc/internal/value"
)

func TestNewRejectsBadThresholds(t *testing.T) {
	for _, e := range []int{-1, 101, 1000} {
		if _, err := New(e); err == nil {
			t.Errorf("threshold %d accepted", e)
		}
	}
	for _, e := range []int{0, 1, 5, 10, 20, 25, 50, 100} {
		if _, err := New(e); err != nil {
			t.Errorf("threshold %d rejected: %v", e, err)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(-5)
}

// TestShiftMatchesPaper checks the shift against the paper's own example:
// 25% threshold, value 128 -> error range 32 (paper §3.2), which requires a
// shift of 2 = log2(100/25).
func TestShiftMatchesPaper(t *testing.T) {
	a := MustNew(25)
	if a.shift != 2 {
		t.Fatalf("shift for 25%% = %d, want 2", a.shift)
	}
	if got := a.ErrorRange(128); got != 32 {
		t.Fatalf("ErrorRange(128) = %d, want 32", got)
	}
}

func TestShiftConservative(t *testing.T) {
	cases := []struct {
		pct   int
		shift uint
	}{
		{100, 0}, {50, 1}, {25, 2}, {20, 3}, {13, 3}, {12, 4}, {10, 4}, {5, 5}, {1, 7},
	}
	for _, c := range cases {
		a := MustNew(c.pct)
		if a.shift != c.shift {
			t.Errorf("shift(%d%%) = %d, want %d", c.pct, a.shift, c.shift)
		}
		// Conservative property: 2^shift >= 100/e.
		if (1<<a.shift)*c.pct < 100 {
			t.Errorf("shift(%d%%) too small to guarantee threshold", c.pct)
		}
	}
}

func TestZeroThresholdMasksNothing(t *testing.T) {
	a := MustNew(0)
	if a.MaskInt(12345) != 0 {
		t.Fatal("0% threshold produced a nonzero int mask")
	}
	if m, ok := a.MaskFloat(value.F32(3.5)); ok && m != 0 {
		t.Fatal("0% threshold produced a nonzero float mask")
	}
}

func TestMaskIntExamples(t *testing.T) {
	a := MustNew(25) // shift 2
	cases := []struct {
		w    int32
		mask uint32
	}{
		{0, 0},        // zero value cannot deviate
		{3, 0},        // range 0
		{9, 1},        // range 2 -> 1 don't-care bit (paper's 1001 -> 100x family scale)
		{128, 0x1F},   // range 32 -> 5 bits
		{-128, 0x1F},  // magnitude symmetric
		{1024, 0xFF},  // range 256 -> 8 bits
		{-1024, 0xFF}, // negative mirror
	}
	for _, c := range cases {
		if got := a.MaskInt(value.I32(c.w)); got != c.mask {
			t.Errorf("MaskInt(%d) = %#x, want %#x", c.w, got, c.mask)
		}
	}
}

func TestMaskIntMinInt32(t *testing.T) {
	a := MustNew(25)
	// |MinInt32| = 2^31; range = 2^29, mask = 2^29-1. Must not overflow.
	want := uint32(1<<29 - 1)
	if got := a.MaskInt(value.I32(math.MinInt32)); got != want {
		t.Fatalf("MaskInt(MinInt32) = %#x, want %#x", got, want)
	}
}

func TestMaskFloatBypassesSpecials(t *testing.T) {
	a := MustNew(10)
	before := a.Stats().Bypasses
	for _, f := range []float32{0, float32(math.Inf(1)), float32(math.NaN()), 1e-42} {
		if _, ok := a.MaskFloat(value.F32(f)); ok {
			t.Errorf("special float %g not bypassed", f)
		}
	}
	if a.Stats().Bypasses != before+4 {
		t.Fatalf("bypass count %d, want %d", a.Stats().Bypasses, before+4)
	}
}

func TestMaskFloatConfinedToMantissa(t *testing.T) {
	a := MustNew(100) // maximal masks
	m, ok := a.MaskFloat(value.F32(1.75))
	if !ok {
		t.Fatal("normal float bypassed")
	}
	if m&^uint32(value.MantissaMask) != 0 {
		t.Fatalf("float mask %#x escapes the mantissa field", m)
	}
}

// The core guarantee of VAXX: any reassignment of don't-care bits keeps the
// value within the error threshold.
func TestMaskIntGuaranteeProperty(t *testing.T) {
	for _, pct := range []int{5, 10, 20, 25, 50} {
		a := MustNew(pct)
		bound := float64(pct) / 100
		f := func(w, noise uint32) bool {
			mask := a.MaskInt(w)
			perturbed := (w &^ mask) | (noise & mask)
			return value.RelError(w, perturbed, value.Int32) <= bound+1e-12
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("threshold %d%%: %v", pct, err)
		}
	}
}

func TestMaskFloatGuaranteeProperty(t *testing.T) {
	for _, pct := range []int{5, 10, 20} {
		a := MustNew(pct)
		bound := float64(pct) / 100
		f := func(w, noise uint32) bool {
			mask, ok := a.MaskFloat(w)
			if !ok {
				return true // bypass: nothing to check
			}
			perturbed := (w &^ mask) | (noise & mask)
			return value.RelError(w, perturbed, value.Float32) <= bound+1e-9
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("threshold %d%%: %v", pct, err)
		}
	}
}

// TestMaskFloatThresholdIsASwitch pins why FP-VAXX's threshold acts as an
// on/off switch on float data: a normal float's significand is at least
// 2^23, so at any threshold from 1 % to 100 % (shift at most 7) the mask
// covers the low halfword, bits 0-15, whatever the sign, exponent and
// mantissa, and at 0 % it masks nothing. Every normal exponent is
// checked with both signs, the mantissa's edges and seeded random ones.
func TestMaskFloatThresholdIsASwitch(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	mantissas := []uint32{0, 1, 0x400000, 0x7FFFFF}
	for i := 0; i < 8; i++ {
		mantissas = append(mantissas, r.Uint32()&value.MantissaMask)
	}
	a := MustNew(0)
	for pct := 0; pct <= 100; pct++ {
		if err := a.SetThreshold(pct); err != nil {
			t.Fatal(err)
		}
		for exp := uint32(1); exp <= 254; exp++ {
			for _, sign := range []uint32{0, 1 << 31} {
				for _, m := range mantissas {
					w := sign | exp<<23 | m
					mask, ok := a.MaskFloat(w)
					switch {
					case !ok:
						t.Fatalf("normal float %#08x bypassed at %d%%", w, pct)
					case pct == 0 && mask != 0:
						t.Fatalf("float %#08x masked %#x at 0%%", w, mask)
					case pct > 0 && mask&0xFFFF != 0xFFFF:
						t.Fatalf("float %#08x masked only %#x at %d%%, not bits 0-15", w, mask, pct)
					}
				}
			}
		}
	}
}

func TestMaskWordDispatch(t *testing.T) {
	a := MustNew(10)
	if m, ok := a.MaskWord(value.F32(0), value.Float32); ok || m != 0 {
		t.Fatal("float dispatch ignored special bypass")
	}
	if _, ok := a.MaskWord(value.I32(100), value.Int32); !ok {
		t.Fatal("int dispatch reported bypass")
	}
	im := a.MaskInt(value.I32(1000))
	if m, _ := a.MaskWord(value.I32(1000), value.Int32); m != im {
		t.Fatal("int dispatch disagrees with MaskInt")
	}
}

func TestWithinThreshold(t *testing.T) {
	a := MustNew(10)
	if !a.WithinThreshold(value.I32(100), value.I32(95), value.Int32) {
		t.Fatal("5% deviation rejected at 10% threshold")
	}
	if a.WithinThreshold(value.I32(100), value.I32(80), value.Int32) {
		t.Fatal("20% deviation accepted at 10% threshold")
	}
	if !a.WithinThreshold(value.F32(2), value.F32(1.9), value.Float32) {
		t.Fatal("5% float deviation rejected")
	}
}

func TestMaskForRangeBoundary(t *testing.T) {
	cases := []struct {
		rng  uint32
		mask uint32
	}{
		{0, 0}, {1, 1}, {2, 1}, {3, 3}, {6, 3}, {7, 7}, {8, 7},
		{math.MaxUint32, math.MaxUint32},
	}
	for _, c := range cases {
		if got := maskForRange(c.rng); got != c.mask {
			t.Errorf("maskForRange(%d) = %#x, want %#x", c.rng, got, c.mask)
		}
	}
}

func TestErrorRangeCountsOps(t *testing.T) {
	a := MustNew(10)
	a.ErrorRange(5)
	a.ErrorRange(10)
	if a.Stats().RangeComputes != 2 {
		t.Fatalf("range computes = %d", a.Stats().RangeComputes)
	}
}
