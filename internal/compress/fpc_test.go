package compress

import (
	"testing"
	"testing/quick"

	"approxnoc/internal/value"
)

func fpRoundTrip(t *testing.T, c Codec, blk *value.Block) *value.Block {
	t.Helper()
	before := c.Stats()
	enc := c.Compress(1, blk)
	dec, notifs := c.Decompress(0, enc)
	if len(notifs) != 0 {
		t.Fatalf("frequent-pattern codec emitted notifications: %v", notifs)
	}
	if len(dec.Words) != len(blk.Words) {
		t.Fatalf("decoded %d words, want %d", len(dec.Words), len(blk.Words))
	}
	if err := statsMatchDecode(before, c.Stats(), blk, dec); err != nil {
		t.Fatal(err)
	}
	return dec
}

func TestFPCompExactRoundTrip(t *testing.T) {
	c := NewFPComp()
	blk := value.BlockFromI32([]int32{0, 0, 5, -3, 127, -128, 30000, -30000, 0x12340000 >> 0, 258, 1 << 30, -1}, false)
	blk.Words[8] = 0x12340000 // halfword padded with zero halfword
	dec := fpRoundTrip(t, c, blk)
	if !dec.Equal(blk) {
		t.Fatalf("exact FP-COMP altered data:\n got %v\nwant %v", dec.Words, blk.Words)
	}
}

func TestFPCompPatternClasses(t *testing.T) {
	c := NewFPComp().(*fpCodec)
	cases := []struct {
		w    uint32
		bits int // prefix + data
		kind WordKind
	}{
		{0x00000005, 3 + 4, ExactWord},  // 4-bit SE
		{0xFFFFFFFB, 3 + 4, ExactWord},  // -5, 4-bit SE
		{0x0000007F, 3 + 8, ExactWord},  // byte SE
		{0xFFFFFF80, 3 + 8, ExactWord},  // -128, byte SE
		{0x00007FFF, 3 + 16, ExactWord}, // halfword SE
		{0x12340000, 3 + 16, ExactWord}, // half padded with zero half
		{0xFFFF0005, 3 + 16, ExactWord}, // two byte-SE halfwords
		{0x12345678, 3 + 32, RawWord},   // incompressible
	}
	for _, cse := range cases {
		kind, bits, _, decoded, _ := c.encodeWord(cse.w, 0, value.Int32)
		if kind != cse.kind || bits != cse.bits {
			t.Errorf("word %#x: kind=%v bits=%d, want kind=%v bits=%d",
				cse.w, kind, bits, cse.kind, cse.bits)
		}
		if decoded != cse.w {
			t.Errorf("word %#x: exact path altered value to %#x", cse.w, decoded)
		}
	}
}

func TestFPCompPriorityOrder(t *testing.T) {
	c := NewFPComp().(*fpCodec)
	// 5 matches 4-bit SE, byte SE and halfword SE; priority must pick 4-bit.
	_, bits, _, _, _ := c.encodeWord(5, 0, value.Int32)
	if bits != 3+4 {
		t.Fatalf("word 5 encoded with %d bits, want the 4-bit SE row", bits)
	}
}

func TestFPCompZeroRunLength(t *testing.T) {
	c := NewFPComp()
	// 10 zeros -> one run of 8 + one run of 2: 2*(3+3)=12 bits.
	blk := value.BlockFromI32(make([]int32, 10), false)
	enc := c.Compress(1, blk)
	if enc.Bits != 12 {
		t.Fatalf("10-zero block = %d bits, want 12", enc.Bits)
	}
	dec := fpRoundTrip(t, c, blk)
	if !dec.Equal(blk) {
		t.Fatal("zero block mangled")
	}
}

func TestFPCompRoundTripProperty(t *testing.T) {
	c := NewFPComp()
	f := func(words []uint32) bool {
		if len(words) == 0 {
			return true
		}
		if len(words) > 16 {
			words = words[:16]
		}
		blk := &value.Block{Words: words, DType: value.Int32}
		enc := c.Compress(1, blk)
		dec, _ := c.Decompress(0, enc)
		return dec.Equal(blk) // exact scheme must never alter data
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFPVaxxApproximatesWithinThreshold(t *testing.T) {
	for _, pct := range []int{5, 10, 20} {
		c, err := NewFPVaxx(pct)
		if err != nil {
			t.Fatal(err)
		}
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
			bound := float64(pct)/100 + 1e-9
			for i := range blk.Words {
				if value.RelError(blk.Words[i], dec.Words[i], value.Int32) > bound {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("threshold %d%%: %v", pct, err)
		}
	}
}

func TestFPVaxxFloatThresholdProperty(t *testing.T) {
	c, _ := NewFPVaxx(10)
	f := func(words []uint32) bool {
		if len(words) == 0 {
			return true
		}
		if len(words) > 16 {
			words = words[:16]
		}
		blk := &value.Block{Words: words, DType: value.Float32, Approximable: true}
		enc := c.Compress(1, blk)
		dec, _ := c.Decompress(0, enc)
		for i := range blk.Words {
			if value.RelError(blk.Words[i], dec.Words[i], value.Float32) > 0.1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFPVaxxNonApproximableIsExact(t *testing.T) {
	c, _ := NewFPVaxx(20)
	blk := value.BlockFromI32([]int32{1000000, 77777, -31313, 123456}, false) // not approximable
	enc := c.Compress(1, blk)
	dec, _ := c.Decompress(0, enc)
	if !dec.Equal(blk) {
		t.Fatal("FP-VAXX altered non-approximable data")
	}
	if c.Stats().WordsApprox != 0 {
		t.Fatal("approximate encoding on non-approximable block")
	}
}

func TestFPVaxxImprovesCompression(t *testing.T) {
	// Values near-but-not-exactly pattern matches: large values whose low
	// halfword is almost zero. Exact FP-COMP must send them raw; FP-VAXX
	// can wipe the low bits and use the half-padded row.
	words := make([]int32, 16)
	for i := range words {
		words[i] = int32(0x12340000 + 7 + i) // low halfword = small noise
	}
	exact := NewFPComp()
	vaxx, _ := NewFPVaxx(10)
	be := exact.Compress(1, value.BlockFromI32(words, true))
	bv := vaxx.Compress(1, value.BlockFromI32(words, true))
	if bv.Bits >= be.Bits {
		t.Fatalf("FP-VAXX %d bits, FP-COMP %d bits; approximation should win", bv.Bits, be.Bits)
	}
	vs := vaxx.Stats()
	if vs.WordsApprox == 0 {
		t.Fatal("FP-VAXX made no approximate matches")
	}
	if q := vs.DataQuality(); q < 0.9 {
		t.Fatalf("data quality %g below the scheme's own 10%% bound", q)
	}
}

func TestFPVaxxApproximatesSmallValuesToZeroRun(t *testing.T) {
	// At 50% threshold, value 64 can deviate by 32: still not zero.
	// Large value 1<<20 with low halfword noise compresses approximately.
	c, _ := NewFPVaxx(50)
	blk := value.BlockFromI32([]int32{1 << 20, 1<<20 + 3, 1<<20 - 1, 1 << 20}, true)
	c.Compress(1, blk)
	s := c.Stats()
	if comp := s.WordsExact + s.WordsApprox; comp != 4 {
		t.Fatalf("only %d/4 words compressed at 50%% threshold", comp)
	}
}

func TestFPVaxxSpecialFloatsUntouched(t *testing.T) {
	c, _ := NewFPVaxx(20)
	blk := value.BlockFromF32([]float32{0, 0, 0, 0}, true)
	dec := fpRoundTrip(t, c, blk)
	if !dec.Equal(blk) {
		t.Fatal("zero floats altered")
	}
	// Zero floats are bit-pattern zero: they compress as a zero run exactly.
	s := c.Stats()
	if s.WordsApprox != 0 {
		t.Fatal("special floats were approximated")
	}
}

func TestFPCompStatsAccounting(t *testing.T) {
	c := NewFPComp()
	blk := value.BlockFromI32([]int32{0, 5, 0x7FFFFFF, 3}, false)
	enc := c.Compress(1, blk)
	s := c.Stats()
	if s.BlocksIn != 1 || s.WordsIn != 4 {
		t.Fatalf("stats %+v", s)
	}
	if s.WordsExact != 3 || s.WordsRaw != 1 {
		t.Fatalf("exact=%d raw=%d, want 3/1", s.WordsExact, s.WordsRaw)
	}
	if s.BitsIn != 128 || s.BitsOut != uint64(enc.Bits) {
		t.Fatalf("bits in/out %d/%d", s.BitsIn, s.BitsOut)
	}
	if s.CompressionRatio() <= 1 {
		t.Fatalf("compressible block ratio %g", s.CompressionRatio())
	}
}

func TestEncodedPayloadBytes(t *testing.T) {
	e := &Encoded{Bits: 13}
	if e.PayloadBytes() != 2 {
		t.Fatalf("13 bits = %d bytes, want 2", e.PayloadBytes())
	}
	e.Bits = 16
	if e.PayloadBytes() != 2 {
		t.Fatal("16 bits should be 2 bytes")
	}
}

func TestSchemeStringsAndParse(t *testing.T) {
	for _, s := range AllSchemes() {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Errorf("round trip of %v failed: %v %v", s, got, err)
		}
	}
	if _, err := ParseScheme("nope"); err == nil {
		t.Fatal("bogus scheme accepted")
	}
	if !FPVaxx.IsVaxx() || !DIVaxx.IsVaxx() || FPComp.IsVaxx() || Baseline.IsVaxx() {
		t.Fatal("IsVaxx misclassifies")
	}
}

// refBitReader is the bit-at-a-time formulation (internal/oracle keeps the
// same one) that the accumulator reader is held to: layout, values and
// the overrun state — failed set, the rest consumed, zero returned.
type refBitReader struct {
	buf  []byte
	pos  int
	fail bool
}

func (r *refBitReader) read(width int) uint32 {
	if r.pos+width > 8*len(r.buf) {
		r.pos, r.fail = 8*len(r.buf), true
		return 0
	}
	var v uint32
	for i := 0; i < width; i++ {
		v = v<<1 | uint32(r.buf[r.pos/8]>>uint(7-r.pos%8))&1
		r.pos++
	}
	return v
}

// checkAgainstRef reads lead bits with ReadBits and then codes codes with
// the fused ReadPrefixed, comparing every value and the reader state with
// the reference reading the same buffer one bit at a time.
func checkAgainstRef(t *testing.T, buf []byte, lead, codes int) {
	t.Helper()
	r, ref := newBitReader(buf), &refBitReader{buf: buf}
	same := func(what string, got, want uint32) {
		t.Helper()
		if got != want || r.Failed() != ref.fail || r.Pos() != ref.pos {
			t.Fatalf("% x, %d lead bits, %s: read %#x (failed %v, pos %d), bit-at-a-time says %#x (failed %v, pos %d)",
				buf, lead, what, got, r.Failed(), r.Pos(), want, ref.fail, ref.pos)
		}
	}
	for n := lead; n > 0; n -= min(n, 32) {
		same("lead", r.ReadBits(min(n, 32)), ref.read(min(n, 32)))
	}
	for k := 0; k < codes; k++ {
		prefix, data := r.ReadPrefixed()
		wantPrefix := ref.read(fpPrefixBits)
		wantData := ref.read(int(fpDataBits[wantPrefix]))
		same("prefix", prefix, wantPrefix)
		same("field", data, wantData)
	}
}

func TestBitIORoundTripProperty(t *testing.T) {
	f := func(fields []uint32, widths []uint8) bool {
		n := len(fields)
		if len(widths) < n {
			n = len(widths)
		}
		w := &bitWriter{}
		want := make([]uint32, n)
		ws := make([]int, n)
		for i := 0; i < n; i++ {
			width := int(widths[i] % 33) // 0..32
			ws[i] = width
			mask := uint32(0)
			if width > 0 {
				mask = ^uint32(0) >> uint(32-width)
			}
			want[i] = fields[i] & mask
			w.WriteBits(fields[i], width)
		}
		r := newBitReader(w.Bytes())
		for i := 0; i < n; i++ {
			if got := r.ReadBits(ws[i]); got != want[i] {
				return false
			}
		}
		return !r.Failed()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// The fused prefix+field read: a stream of codes behind 0..63 lead
	// bits, so codes start at every alignment and straddle every refill.
	g := func(lead uint8, prefixes []uint8, fields []uint32) bool {
		n := min(len(prefixes), len(fields))
		w := &bitWriter{}
		for i := 0; i < int(lead%64); i++ {
			w.WriteBits(uint32(i), 1)
		}
		for i := 0; i < n; i++ {
			w.WriteBits(uint32(prefixes[i]), fpPrefixBits)
			w.WriteBits(fields[i], int(fpDataBits[prefixes[i]%(1<<fpPrefixBits)]))
		}
		checkAgainstRef(t, w.Bytes(), int(lead%64), n)
		return true
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitReaderOverrun(t *testing.T) {
	r := newBitReader([]byte{0xFF})
	r.ReadBits(8)
	if r.Failed() {
		t.Fatal("in-bounds read flagged")
	}
	if v := r.ReadBits(1); v != 0 || !r.Failed() {
		t.Fatal("overrun not detected")
	}
	// The fused read, for every prefix at every alignment with the buffer
	// cut at every byte: the code whole, its field cut, its prefix cut,
	// and reads after the overrun.
	for lead := 0; lead < 72; lead++ {
		for prefix := uint32(0); prefix < 1<<fpPrefixBits; prefix++ {
			w := &bitWriter{}
			for i := 0; i < lead; i++ {
				w.WriteBits(1, 1)
			}
			w.WriteBits(prefix, fpPrefixBits)
			w.WriteBits(0xA5A5_A5A5, int(fpDataBits[prefix]))
			w.WriteBits(0x2FF, 10) // a second code begins behind the first
			full := w.Bytes()
			for cut := 0; cut <= len(full); cut++ {
				checkAgainstRef(t, full[:cut], lead, 4)
			}
		}
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	c := NewBaseline()
	blk := value.BlockFromI32([]int32{1, -2, 3, 0x7FFFFFFF}, true)
	enc := c.Compress(1, blk)
	if enc.Bits != 128 {
		t.Fatalf("baseline bits %d, want 128", enc.Bits)
	}
	dec, _ := c.Decompress(0, enc)
	if !dec.Equal(blk) {
		t.Fatal("baseline altered data")
	}
	if c.Stats().CompressionRatio() != 1 {
		t.Fatalf("baseline ratio %g", c.Stats().CompressionRatio())
	}
}

func TestOpStatsDerived(t *testing.T) {
	s := OpStats{WordsIn: 10, WordsExact: 4, WordsApprox: 2, WordsRaw: 4, SumRelError: 0.5}
	if f := s.EncodedWordFraction(); f != 0.6 {
		t.Fatalf("encoded fraction %g", f)
	}
	if f := s.ApproxWordFraction(); f != 0.2 {
		t.Fatalf("approx fraction %g", f)
	}
	if q := s.DataQuality(); q != 0.95 {
		t.Fatalf("quality %g", q)
	}
	var zero OpStats
	if zero.DataQuality() != 1 || zero.CompressionRatio() != 1 || zero.EncodedWordFraction() != 0 {
		t.Fatal("zero-stats derived values wrong")
	}
	var sum OpStats
	sum.Add(s)
	sum.Add(s)
	if sum.WordsIn != 20 || sum.SumRelError != 1.0 {
		t.Fatalf("Add wrong: %+v", sum)
	}
}
