// Package approx implements the paper's Approximate Value Compute Logic
// (AVCL, §3.2, Fig. 4): given a 32-bit word and a relative error threshold,
// it computes the value range an approximation may deviate by and converts
// that range into a don't-care bit mask. Integer words use the logic
// directly; float words route their mantissa through the same datapath
// after significand extraction, and special floats (zero, denormal,
// infinity, NaN) bypass approximation entirely.
//
// The paper computes the error range with a shift instead of a multiply:
// the number of shift bits is precomputed from 100/e. We use
// shift = ceil(log2(100/e)) so that value>>shift <= value*e/100 always
// holds, making the error guarantee conservative for thresholds where
// 100/e is not a power of two (see DESIGN.md §5).
package approx

import (
	"fmt"
	"math/bits"

	"approxnoc/internal/value"
)

// Stats counts AVCL operations for the energy model and the
// observability layer.
type Stats struct {
	RangeComputes uint64 // error-range shifts performed
	Bypasses      uint64 // special floats / non-approximable bypass
	MaskHits      uint64 // masks with at least one don't-care bit
	Clips         uint64 // float masks clipped to the mantissa boundary
}

// AVCL is the approximate value compute logic for one error threshold.
type AVCL struct {
	thresholdPct int
	shift        uint
	stats        Stats
}

// New returns an AVCL for a relative error threshold of thresholdPct
// percent. Valid thresholds are 0..100; 0 disables approximation (every
// mask is empty).
func New(thresholdPct int) (*AVCL, error) {
	a := new(AVCL)
	if err := a.SetThreshold(thresholdPct); err != nil {
		return nil, err
	}
	return a, nil
}

// SetThreshold switches the AVCL to a new threshold in place, keeping its
// operation counters; an out-of-range threshold leaves it unchanged.
func (a *AVCL) SetThreshold(thresholdPct int) error {
	if thresholdPct < 0 || thresholdPct > 100 {
		return fmt.Errorf("approx: threshold %d%% out of range [0,100]", thresholdPct)
	}
	a.thresholdPct = thresholdPct
	if thresholdPct > 0 {
		// ceil(log2(100/e)) computed without floating point: the smallest
		// s with 2^s * e >= 100.
		s := uint(0)
		for (1<<s)*thresholdPct < 100 {
			s++
		}
		a.shift = s
	} else {
		a.shift = 32 // shifts any 32-bit value to zero range
	}
	return nil
}

// MustNew is New for known-good thresholds; it panics on error.
func MustNew(thresholdPct int) *AVCL {
	a, err := New(thresholdPct)
	if err != nil {
		panic(err)
	}
	return a
}

// Threshold returns the configured error threshold in percent.
func (a *AVCL) Threshold() int { return a.thresholdPct }

// Stats returns the operation counters.
func (a *AVCL) Stats() Stats { return a.stats }

// RestoreStats overwrites the operation counters; a reused codec zeroes
// them with it so its energy accounting starts where a new one's does.
func (a *AVCL) RestoreStats(s Stats) { a.stats = s }

// ErrorRange returns the largest absolute deviation allowed for a
// magnitude m under the threshold: m >> shift.
func (a *AVCL) ErrorRange(m uint32) uint32 {
	a.stats.RangeComputes++
	if a.shift >= 32 {
		return 0
	}
	return m >> a.shift
}

// maskForRange converts an error range into a don't-care mask of k low
// bits, with 2^k - 1 <= errRange so any assignment of the masked bits
// stays within the range.
func maskForRange(errRange uint32) uint32 {
	k := bits.Len32(errRange+1) - 1 // floor(log2(errRange+1))
	if errRange == ^uint32(0) {     // avoid the +1 overflow corner
		k = 32
	}
	if k >= 32 {
		return ^uint32(0)
	}
	return (1 << uint(k)) - 1
}

// MaskInt returns the don't-care mask for an integer word. The range is
// computed on the value's magnitude so negative values get the same
// relative guarantee as positive ones.
func (a *AVCL) MaskInt(w value.Word) uint32 {
	m := magnitude(w)
	mask := maskForRange(a.ErrorRange(m))
	if mask != 0 {
		a.stats.MaskHits++
	}
	return mask
}

func magnitude(w value.Word) uint32 {
	v := int32(w)
	if v >= 0 {
		return uint32(v)
	}
	return uint32(-int64(v)) // handles MinInt32 without overflow
}

// MaskFloat returns the don't-care mask for a float word, confined to the
// low mantissa bits, and ok=false when the float exponent detection logic
// bypasses approximation (exponent all zeros or all ones).
func (a *AVCL) MaskFloat(w value.Word) (mask uint32, ok bool) {
	if value.IsSpecialFloat(w) {
		a.stats.Bypasses++
		return 0, false
	}
	sig := value.Significand(w)
	mask = maskForRange(a.ErrorRange(sig))
	if mask > value.MantissaMask {
		// The error range spills past the mantissa: clip the don't-care
		// bits at the exponent boundary (threshold-clip).
		mask = value.MantissaMask
		a.stats.Clips++
	}
	if mask != 0 {
		a.stats.MaskHits++
	}
	return mask, true
}

// MaskWord dispatches on the data type: the Fig. 4 int/float multiplexers.
// ok=false means the word must bypass approximation.
func (a *AVCL) MaskWord(w value.Word, dt value.DataType) (mask uint32, ok bool) {
	if dt == value.Float32 {
		return a.MaskFloat(w)
	}
	return a.MaskInt(w), true
}

// WithinThreshold reports whether approximating orig as approx satisfies
// the threshold. This is the encoder-side online error check the paper's
// lightweight error control logic performs before emitting an approximate
// encoding.
func (a *AVCL) WithinThreshold(orig, approx value.Word, dt value.DataType) bool {
	return value.RelError(orig, approx, dt) <= float64(a.thresholdPct)/100
}
