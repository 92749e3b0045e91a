package value

import (
	"math"
	"testing"
)

// Bit patterns the IEEE-754 edge cases hinge on.
const (
	posZero     = Word(0x00000000)
	negZero     = Word(0x80000000)
	posInf      = Word(0x7F800000)
	negInf      = Word(0xFF800000)
	quietNaN    = Word(0x7FC00000)
	payloadNaN  = Word(0x7FC00001) // same class, different payload
	negNaN      = Word(0xFFC00000)
	minDenormal = Word(0x00000001)
	maxDenormal = Word(0x007FFFFF)
	negDenormal = Word(0x80000001)
	minNormal   = Word(0x00800000)
)

func TestRelErrorFloatEdges(t *testing.T) {
	cases := []struct {
		name         string
		orig, approx Word
		want         float64
	}{
		{"pos zero identical", posZero, posZero, 0},
		{"neg zero identical", negZero, negZero, 0},
		{"pos vs neg zero", posZero, negZero, 0}, // value equal
		{"neg vs pos zero", negZero, posZero, 0},
		{"zero to denormal", posZero, minDenormal, 1},
		{"neg zero to denormal", negZero, minDenormal, 1},
		{"NaN identical payload", quietNaN, quietNaN, 0},
		{"NaN different payload", quietNaN, payloadNaN, 1},
		{"NaN sign flip", quietNaN, negNaN, 1},
		{"NaN to finite", quietNaN, F32(1), 1},
		{"finite to NaN", F32(1), quietNaN, math.Inf(1)},
		{"finite to Inf", F32(1), posInf, math.Inf(1)},
		{"finite to -Inf", F32(1), negInf, math.Inf(1)},
		{"zero to NaN", posZero, quietNaN, math.Inf(1)},
		{"Inf identical", posInf, posInf, 0},
		{"Inf sign flip", posInf, negInf, 1},
		{"Inf to finite", posInf, F32(1), 1},
		{"denormal sign flip", minDenormal, negDenormal, 2},
		{"denormal halved", Word(0x00000002), minDenormal, 0.5},
		{"denormal to zero", minDenormal, posZero, 1},
		{"denormal to neg zero", minDenormal, negZero, 1},
		{"max denormal to min normal", maxDenormal,
			minNormal,
			(float64(math.Float32frombits(minNormal)) - float64(math.Float32frombits(maxDenormal))) /
				float64(math.Float32frombits(maxDenormal))},
	}
	for _, c := range cases {
		got := RelError(c.orig, c.approx, Float32)
		if got != c.want {
			t.Errorf("%s: RelError(%#08x, %#08x) = %g, want %g", c.name, c.orig, c.approx, got, c.want)
		}
		if math.IsNaN(got) {
			t.Errorf("%s: RelError returned NaN", c.name)
		}
		if got < 0 {
			t.Errorf("%s: RelError returned negative %g", c.name, got)
		}
	}
}

// TestRelErrorIntFPCBoundaries pins the integer error math at the words
// that sit on the Fig. 5 frequent-pattern field boundaries, where the
// FP-VAXX don't-care masks decide between adjacent encodings.
func TestRelErrorIntFPCBoundaries(t *testing.T) {
	cases := []struct {
		name         string
		orig, approx Word
		want         float64
	}{
		{"4-bit max exact", I32(7), I32(7), 0},
		{"4-bit overflow rounded", I32(8), I32(7), 1.0 / 8},
		{"4-bit min", I32(-8), I32(-7), 1.0 / 8},
		{"8-bit max", I32(127), I32(128), 1.0 / 127},
		{"8-bit min", I32(-128), I32(-127), 1.0 / 128},
		{"16-bit max", I32(32767), I32(32768), 1.0 / 32767},
		{"16-bit min", I32(-32768), I32(-32767), 1.0 / 32768},
		{"half-zero boundary", I32(1 << 16), I32(1<<16 + 1), 1.0 / 65536},
		{"int32 min magnitude", I32(math.MinInt32), I32(math.MinInt32 + 1), 1.0 / (1 << 31)},
		{"int32 min to max", I32(math.MinInt32), I32(math.MaxInt32),
			float64(1<<32-1) / float64(1<<31)},
		{"zero to one", I32(0), I32(1), 1},
		{"zero to min", I32(0), I32(math.MinInt32), 1},
	}
	for _, c := range cases {
		if got := RelError(c.orig, c.approx, Int32); got != c.want {
			t.Errorf("%s: RelError(%d, %d) = %g, want %g",
				c.name, int32(c.orig), int32(c.approx), got, c.want)
		}
	}
}

func TestIsSpecialFloatEdges(t *testing.T) {
	special := []Word{posZero, negZero, posInf, negInf, quietNaN, payloadNaN, negNaN,
		minDenormal, maxDenormal, negDenormal}
	for _, w := range special {
		if !IsSpecialFloat(w) {
			t.Errorf("IsSpecialFloat(%#08x) = false, want true", w)
		}
	}
	normal := []Word{minNormal, F32(1), F32(-1), F32(math.MaxFloat32), F32(-math.MaxFloat32)}
	for _, w := range normal {
		if IsSpecialFloat(w) {
			t.Errorf("IsSpecialFloat(%#08x) = true, want false", w)
		}
	}
}

func TestSignificandEdgeRoundTrip(t *testing.T) {
	for _, w := range []Word{F32(1), F32(-1.5), F32(math.Pi), F32(1e20), F32(-3e-20)} {
		sig := Significand(w)
		if sig < 1<<MantissaBits || sig >= 1<<(MantissaBits+1) {
			t.Errorf("Significand(%#08x) = %#x outside [2^23, 2^24)", w, sig)
		}
		if sig&MantissaMask != w&MantissaMask {
			t.Errorf("Significand(%#08x) = %#x lost mantissa bits", w, sig)
		}
	}
}
