package value

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDataTypeString(t *testing.T) {
	if Int32.String() != "int32" || Float32.String() != "float32" {
		t.Fatal("unexpected DataType strings")
	}
	if DataType(9).String() != "DataType(9)" {
		t.Fatal("unexpected fallback string")
	}
}

func TestBlockCloneIndependent(t *testing.T) {
	b := BlockFromI32([]int32{1, 2, 3}, true)
	c := b.Clone()
	c.Words[0] = 99
	if b.Words[0] != 1 {
		t.Fatal("clone shares word storage")
	}
	if !b.Equal(b.Clone()) {
		t.Fatal("clone not equal to original")
	}
}

// blockSink makes the blocks of TestNewBlockOneAllocation escape, so an
// inlined NewBlock cannot keep its header on the stack.
var blockSink *Block

// At the power-of-two sizes from 4 to 64 words a block and its words
// are one allocation; any other size keeps the words separate. Either
// way the words are zero, len and cap are n, and the metadata is set.
func TestNewBlockOneAllocation(t *testing.T) {
	for _, n := range []int{1, 3, 4, 5, 16, 17, 64, 65} {
		b := NewBlock(n, Float32, true)
		if len(b.Words) != n || cap(b.Words) != n {
			t.Fatalf("n=%d: len %d cap %d", n, len(b.Words), cap(b.Words))
		}
		for i, w := range b.Words {
			if w != 0 {
				t.Fatalf("n=%d: word %d is %#x, want 0", n, i, w)
			}
		}
		if b.DType != Float32 || !b.Approximable {
			t.Fatalf("n=%d: metadata %v/%v", n, b.DType, b.Approximable)
		}
		if raceEnabled {
			continue
		}
		want := 2.0
		if n == 4 || n == 16 || n == 64 {
			want = 1
		}
		if a := testing.AllocsPerRun(100, func() { blockSink = NewBlock(n, Int32, false) }); a != want {
			t.Errorf("NewBlock(%d) allocates %.0f times, want %.0f", n, a, want)
		}
	}
	if raceEnabled {
		t.Skip("allocation counts skew under -race")
	}
	b := NewBlock(16, Int32, false)
	if a := testing.AllocsPerRun(100, func() { blockSink = b.Clone() }); a != 1 {
		t.Errorf("Clone of a 16-word block allocates %.0f times, want 1", a)
	}
}

func TestBlockEqual(t *testing.T) {
	a := BlockFromI32([]int32{1, 2}, true)
	cases := []*Block{
		BlockFromI32([]int32{1, 3}, true),
		BlockFromI32([]int32{1, 2}, false),
		BlockFromI32([]int32{1, 2, 3}, true),
		BlockFromF32([]float32{1, 2}, true),
	}
	for i, c := range cases {
		if a.Equal(c) {
			t.Fatalf("case %d: blocks should differ", i)
		}
	}
	if !a.Equal(BlockFromI32([]int32{1, 2}, true)) {
		t.Fatal("identical blocks unequal")
	}
}

func TestBlockBytes(t *testing.T) {
	if got := NewBlock(16, Int32, false).Bytes(); got != 64 {
		t.Fatalf("16-word block = %d bytes, want 64", got)
	}
}

func TestIsSpecialFloat(t *testing.T) {
	specials := []float32{0, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 1e-42}
	for _, f := range specials {
		if !IsSpecialFloat(F32(f)) {
			t.Errorf("%g should be special", f)
		}
	}
	normals := []float32{1, -1, 3.14, 1e20, -1e-20}
	for _, f := range normals {
		if IsSpecialFloat(F32(f)) {
			t.Errorf("%g should not be special", f)
		}
	}
}

func TestSignificandRoundTrip(t *testing.T) {
	f := func(w uint32) bool {
		sig := Significand(w)
		if sig>>MantissaBits != 1 {
			return false // implicit bit must be set, upper bits zero
		}
		return sig&MantissaMask == w&MantissaMask // mantissa carried over intact
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRelErrorInt(t *testing.T) {
	cases := []struct {
		orig, approx int32
		want         float64
	}{
		{100, 100, 0},
		{100, 90, 0.10},
		{100, 110, 0.10},
		{-100, -90, 0.10},
		{0, 0, 0},
		{0, 1, 1},
		{8, 9, 0.125},
	}
	for _, c := range cases {
		got := RelError(I32(c.orig), I32(c.approx), Int32)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("RelError(%d,%d)=%g want %g", c.orig, c.approx, got, c.want)
		}
	}
}

func TestRelErrorIntNoOverflow(t *testing.T) {
	// int32 min vs max must not overflow the difference computation.
	got := RelError(I32(math.MinInt32), I32(math.MaxInt32), Int32)
	if got < 1.9 || got > 2.1 {
		t.Fatalf("extreme int error %g, want ~2", got)
	}
}

func TestRelErrorFloat(t *testing.T) {
	if got := RelError(F32(2.0), F32(1.8), Float32); math.Abs(got-0.1) > 1e-6 {
		t.Fatalf("float rel error %g want 0.1", got)
	}
	if got := RelError(F32(0), F32(1), Float32); got != 1 {
		t.Fatalf("zero-orig error %g want 1", got)
	}
	if got := RelError(F32(float32(math.NaN())), F32(1), Float32); got != 1 {
		t.Fatalf("NaN-orig error %g want 1", got)
	}
	if got := RelError(F32(-4), F32(-4), Float32); got != 0 {
		t.Fatalf("identical float error %g want 0", got)
	}
}

func TestRelErrorSymmetricZero(t *testing.T) {
	f := func(w uint32) bool {
		return RelError(w, w, Int32) == 0 && RelError(w, w, Float32) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConversions(t *testing.T) {
	if FromI32(I32(-42)) != -42 {
		t.Fatal("int32 round trip failed")
	}
	if FromF32(F32(2.5)) != 2.5 {
		t.Fatal("float32 round trip failed")
	}
}

func TestBlockFromConstructors(t *testing.T) {
	fb := BlockFromF32([]float32{1.5, -2}, true)
	if fb.DType != Float32 || !fb.Approximable || len(fb.Words) != 2 {
		t.Fatal("BlockFromF32 metadata wrong")
	}
	if FromF32(fb.Words[0]) != 1.5 {
		t.Fatal("BlockFromF32 payload wrong")
	}
	ib := BlockFromI32([]int32{7}, false)
	if ib.DType != Int32 || ib.Approximable {
		t.Fatal("BlockFromI32 metadata wrong")
	}
}
