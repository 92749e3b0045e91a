package compress

import (
	"testing"
	"testing/quick"

	"approxnoc/internal/value"
)

func TestFPVaxxWindowedConstruction(t *testing.T) {
	if _, err := NewFPVaxxWindowed(10, 0, 2); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := NewFPVaxxWindowed(10, 16, 0); err == nil {
		t.Fatal("zero boost accepted")
	}
	// Boost pushing past 100% must clamp, not fail.
	if _, err := NewFPVaxxWindowed(60, 16, 4); err != nil {
		t.Fatalf("clamped boost rejected: %v", err)
	}
}

// Windowed FP-VAXX may exceed the nominal threshold per word (up to
// boost x threshold) but never the boosted cap, and stays lossless on
// non-approximable data.
func TestFPVaxxWindowedBoundedByBoost(t *testing.T) {
	const thresholdPct, boost = 10, 4.0
	c, err := NewFPVaxxWindowed(thresholdPct, 16, boost)
	if err != nil {
		t.Fatal(err)
	}
	cap := boost*float64(thresholdPct)/100 + 1e-9
	f := func(words []uint32) bool {
		if len(words) == 0 {
			return true
		}
		if len(words) > 16 {
			words = words[:16]
		}
		blk := &value.Block{Words: words, DType: value.Int32, Approximable: true}
		enc := c.Compress(1, blk)
		dec, _ := c.Decompress(0, enc)
		for i := range blk.Words {
			if value.RelError(blk.Words[i], dec.Words[i], value.Int32) > cap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFPVaxxWindowedLosslessOnPreciseData(t *testing.T) {
	c, _ := NewFPVaxxWindowed(20, 16, 4)
	blk := value.BlockFromI32([]int32{123456, -99999, 31415, 7}, false)
	enc := c.Compress(1, blk)
	dec, _ := c.Decompress(0, enc)
	if !dec.Equal(blk) {
		t.Fatal("windowed codec altered precise data")
	}
}

// The windowed budget's cumulative cap: mean per-block error stays at or
// under the nominal threshold even though single words exceed it.
func TestFPVaxxWindowedMeanErrorWithinThreshold(t *testing.T) {
	const thresholdPct = 10
	c, _ := NewFPVaxxWindowed(thresholdPct, 16, 4)
	r := testRand()
	var sumErr float64
	var words int
	for iter := 0; iter < 200; iter++ {
		vals := make([]uint32, 16)
		for i := range vals {
			vals[i] = uint32(1<<20 + r.Intn(1<<18))
		}
		blk := &value.Block{Words: vals, DType: value.Int32, Approximable: true}
		enc := c.Compress(1, blk)
		dec, _ := c.Decompress(0, enc)
		for i := range vals {
			sumErr += value.RelError(vals[i], dec.Words[i], value.Int32)
			words++
		}
	}
	if mean := sumErr / float64(words); mean > float64(thresholdPct)/100+1e-9 {
		t.Fatalf("mean error %g exceeds nominal threshold", mean)
	}
}

// The extension's purpose: the windowed budget must admit at least as
// many approximate matches as the per-word budget on slack-rich data.
func TestFPVaxxWindowedAdmitsMore(t *testing.T) {
	perWord, _ := NewFPVaxx(10)
	windowed, _ := NewFPVaxxWindowed(10, 16, 4)
	r := testRand()
	for iter := 0; iter < 100; iter++ {
		vals := make([]uint32, 16)
		for i := range vals {
			if i%2 == 0 {
				vals[i] = uint32(r.Intn(8)) // compresses exactly: budget slack
			} else {
				vals[i] = uint32(1<<24 + r.Intn(1<<22)) // needs a big mask
			}
		}
		blk := &value.Block{Words: vals, DType: value.Int32, Approximable: true}
		perWord.Compress(1, blk)
		windowed.Compress(1, blk)
	}
	pw := perWord.Stats()
	wd := windowed.Stats()
	if wd.WordsApprox+wd.WordsExact < pw.WordsApprox+pw.WordsExact {
		t.Fatalf("windowed encoded fewer words (%d) than per-word (%d)",
			wd.WordsApprox+wd.WordsExact, pw.WordsApprox+pw.WordsExact)
	}
}

func TestFPVaxxSetThresholdAtRuntime(t *testing.T) {
	c, _ := NewFPVaxx(5)
	adj, ok := c.(ThresholdAdjuster)
	if !ok {
		t.Fatal("FP-VAXX does not support runtime threshold adjustment")
	}
	// A word whose low-halfword noise needs a 10% mask: raw at 5%.
	blk := &value.Block{Words: []uint32{1<<20 + 40000}, DType: value.Int32, Approximable: true}
	if c.Compress(1, blk); c.Stats().WordsRaw != 1 {
		t.Fatalf("word compressed at 5%%: %+v", c.Stats())
	}
	if err := adj.SetThreshold(10); err != nil {
		t.Fatal(err)
	}
	if c.Compress(1, blk); c.Stats().WordsApprox != 1 {
		t.Fatalf("word not approximated after raising threshold: %+v", c.Stats())
	}
	if err := adj.SetThreshold(500); err == nil {
		t.Fatal("bogus threshold accepted")
	}
	exact := NewFPComp()
	if err := exact.(ThresholdAdjuster).SetThreshold(10); err == nil {
		t.Fatal("FP-COMP accepted a threshold")
	}
}
