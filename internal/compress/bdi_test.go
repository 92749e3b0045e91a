package compress

import (
	"testing"
	"testing/quick"

	"approxnoc/internal/value"
)

func TestBDCompZeroBlock(t *testing.T) {
	c := NewCodec(BDComp, DictConfig{}, 0, 0)
	blk := value.BlockFromI32(make([]int32, 16), false)
	enc := c.Compress(1, blk)
	if enc.Bits != bdModeBits {
		t.Fatalf("zero block %d bits, want %d", enc.Bits, bdModeBits)
	}
	dec, _ := c.Decompress(0, enc)
	if !dec.Equal(blk) {
		t.Fatal("zero block mangled")
	}
}

func TestBDCompNarrowDeltas(t *testing.T) {
	c := NewCodec(BDComp, DictConfig{}, 0, 0)
	base := int32(1_000_000)
	words := make([]int32, 16)
	for i := range words {
		words[i] = base + int32(i%7) // deltas 0..6 relative to words[0]: fits 4 bits
	}
	blk := value.BlockFromI32(words, false)
	enc := c.Compress(1, blk)
	want := bdModeBits + 32 + 16*4
	if enc.Bits != want {
		t.Fatalf("delta-4 block %d bits, want %d", enc.Bits, want)
	}
	dec, _ := c.Decompress(0, enc)
	if !dec.Equal(blk) {
		t.Fatalf("delta block mangled: %v vs %v", dec.Words, blk.Words)
	}
}

func TestBDCompWidthSelection(t *testing.T) {
	c := NewCodec(BDComp, DictConfig{}, 0, 0).(*bdiCodec)
	mk := func(spread int32) *Encoded {
		words := []int32{1000, 1000 + spread, 1000 - spread, 1000}
		return c.Compress(1, value.BlockFromI32(words, false))
	}
	if enc := mk(5); enc.Bits != bdModeBits+32+4*4 {
		t.Fatalf("small spread used %d bits", enc.Bits)
	}
	if enc := mk(100); enc.Bits != bdModeBits+32+4*8 {
		t.Fatalf("medium spread used %d bits", enc.Bits)
	}
	if enc := mk(30000); enc.Bits != bdModeBits+32+4*16 {
		t.Fatalf("large spread used %d bits", enc.Bits)
	}
	if enc := mk(1 << 20); enc.Bits != bdModeBits+4*32 {
		t.Fatalf("raw block used %d bits", enc.Bits)
	}
}

func TestBDCompRoundTripProperty(t *testing.T) {
	c := NewCodec(BDComp, DictConfig{}, 0, 0)
	f := func(words []uint32) bool {
		if len(words) > 16 {
			words = words[:16]
		}
		blk := &value.Block{Words: words, DType: value.Int32}
		enc := c.Compress(1, blk)
		dec, _ := c.Decompress(0, enc)
		return dec.Equal(blk)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBDVaxxApproximatesOutliers(t *testing.T) {
	c := NewCodec(BDVaxx, DictConfig{}, 10, 0)
	// 15 clustered words + one outlier slightly out of delta-16 range but
	// within 10% of the clamped value.
	words := make([]int32, 16)
	base := int32(1_000_000)
	for i := range words {
		words[i] = base + int32(i*100)
	}
	words[7] = base + 40_000 // far outlier, clamped under the error budget
	blk := value.BlockFromI32(words, true)
	enc := c.Compress(1, blk)
	// Like FP-VAXX's priority quirk (§5.3.1), BD-VAXX takes the narrowest
	// width the threshold admits: every delta here is within 10% of the
	// base, so even 4-bit deltas pass the error check.
	if enc.Bits != bdModeBits+32+16*4 {
		t.Fatalf("approximated block used %d bits", enc.Bits)
	}
	dec, _ := c.Decompress(0, enc)
	for i := range words {
		e := value.RelError(blk.Words[i], dec.Words[i], value.Int32)
		if e > 0.10+1e-9 {
			t.Fatalf("word %d error %g", i, e)
		}
	}
	if c.Stats().WordsApprox == 0 {
		t.Fatal("no approximate words recorded")
	}
}

func TestBDVaxxRespectsThresholdProperty(t *testing.T) {
	c := NewCodec(BDVaxx, DictConfig{}, 10, 0)
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
			if value.RelError(blk.Words[i], dec.Words[i], value.Int32) > 0.10+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBDVaxxPreciseBlocksLossless(t *testing.T) {
	c := NewCodec(BDVaxx, DictConfig{}, 20, 0)
	blk := value.BlockFromI32([]int32{5, 1 << 30, -7, 123456}, false)
	enc := c.Compress(1, blk)
	dec, _ := c.Decompress(0, enc)
	if !dec.Equal(blk) {
		t.Fatal("precise block altered")
	}
}

func TestBDVaxxFloatBlocksNeverApproximated(t *testing.T) {
	c := NewCodec(BDVaxx, DictConfig{}, 20, 0)
	blk := value.BlockFromF32([]float32{1.5, 1e30, -2.25, 3.75}, true)
	enc := c.Compress(1, blk)
	dec, _ := c.Decompress(0, enc)
	if !dec.Equal(blk) {
		t.Fatal("float block altered — BD-VAXX must not delta floats across exponents")
	}
	if c.Stats().WordsApprox != 0 {
		t.Fatal("float words approximated")
	}
}

func TestBDSchemesInRegistry(t *testing.T) {
	ext := ExtendedSchemes()
	if len(ext) != 7 {
		t.Fatalf("%d extended schemes", len(ext))
	}
	for _, s := range []Scheme{BDComp, BDVaxx} {
		factory, err := FactoryFor(s, 4, 10)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		c := factory(0)
		if c.Scheme() != s {
			t.Fatalf("factory for %v built %v", s, c.Scheme())
		}
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Fatalf("%v name round trip failed", s)
		}
	}
	if !BDVaxx.IsVaxx() || BDComp.IsVaxx() {
		t.Fatal("BD IsVaxx misclassified")
	}
}

func TestBDEmptyBlock(t *testing.T) {
	c := NewCodec(BDComp, DictConfig{}, 0, 0)
	blk := &value.Block{DType: value.Int32}
	enc := c.Compress(1, blk)
	dec, _ := c.Decompress(0, enc)
	if len(dec.Words) != 0 {
		t.Fatal("empty block grew words")
	}
}
