package compress

import (
	"testing"

	"approxnoc/internal/value"
)

// The production kernel (encodeWord, Decompress) is straight bit
// arithmetic; the fpPatterns table below is the specification it is held
// to. The table lives here, out of the production path: for a dense
// word/mask sample the scalar encoder must make exactly the decision the
// table-driven reference makes, row priority and budget semantics
// included, and for every prefix and field value the decode switch must
// reconstruct the word the table's decode does.

// fpPattern describes one non-zero-run row of the Fig. 5 table.
type fpPattern struct {
	prefix   uint32
	dataBits int
	// encode extracts the adjunct data field from the word — the field is
	// taken verbatim from the word, so approximation error can only enter
	// through bits *outside* the field that the mask declares don't-care.
	encode func(w value.Word) uint32
	decode func(data uint32) value.Word
}

// fpPatterns is ordered by priority: the encoder always matches the
// highest-priority (smallest encoding) pattern first.
var fpPatterns = []fpPattern{
	{
		prefix: fpSE4, dataBits: 4,
		encode: func(w value.Word) uint32 { return w & 0xF },
		decode: func(d uint32) value.Word { return signExtend(d, 4) },
	},
	{
		prefix: fpSE8, dataBits: 8,
		encode: func(w value.Word) uint32 { return w & 0xFF },
		decode: func(d uint32) value.Word { return signExtend(d, 8) },
	},
	{
		prefix: fpSE16, dataBits: 16,
		encode: func(w value.Word) uint32 { return w & 0xFFFF },
		decode: func(d uint32) value.Word { return signExtend(d, 16) },
	},
	{
		prefix: fpHalfZero, dataBits: 16,
		encode: func(w value.Word) uint32 { return w >> 16 },
		decode: func(d uint32) value.Word { return d << 16 },
	},
	{
		prefix: fpTwoHalfSE, dataBits: 16,
		encode: func(w value.Word) uint32 { return (w >> 8 & 0xFF00) | (w & 0xFF) },
		decode: func(d uint32) value.Word { return se8to16(d>>8)<<16 | se8to16(d&0xFF) },
	},
}

// fpMatch tries pattern p against word w under a don't-care mask: the
// decoder-side reconstruction must agree with w on every unmasked bit.
// mask == 0 gives exact FP-COMP matching.
func fpMatch(p fpPattern, w value.Word, mask uint32) (data uint32, decoded value.Word, ok bool) {
	data = p.encode(w)
	decoded = p.decode(data)
	if (w^decoded)&^mask == 0 {
		return data, decoded, true
	}
	return 0, 0, false
}

func fpPatternByPrefix(t *testing.T, prefix uint32) fpPattern {
	t.Helper()
	for _, p := range fpPatterns {
		if p.prefix == prefix {
			return p
		}
	}
	t.Fatalf("no frequent-pattern row with prefix %03b", prefix)
	return fpPattern{}
}

// fpWordRef is encodeWord's scalar result as one comparable value.
type fpWordRef struct {
	kind    WordKind
	bits    int
	code    uint32
	decoded value.Word
	relErr  float64
}

func encodeWordOf(c *fpCodec, word value.Word, mask uint32, dt value.DataType) fpWordRef {
	kind, bits, code, decoded, relErr := c.encodeWord(word, mask, dt)
	return fpWordRef{kind, bits, code, decoded, relErr}
}

// refEncodeWord is the table-driven formulation encodeWord replaced.
func refEncodeWord(c *fpCodec, word value.Word, mask uint32, dt value.DataType) fpWordRef {
	for _, p := range fpPatterns {
		data, decoded, ok := fpMatch(p, word, mask)
		if !ok {
			continue
		}
		kind, relErr := ExactWord, 0.0
		if decoded != word {
			relErr = value.RelError(word, decoded, dt)
			if c.budget == nil || !c.budget.Allow(relErr) {
				continue
			}
			kind = ApproxWord
		}
		return fpWordRef{kind, fpPrefixBits + p.dataBits, p.prefix<<uint(p.dataBits) | data, decoded, relErr}
	}
	return fpWordRef{RawWord, fpPrefixBits + 32, word, word, 0}
}

func sampleWords() []value.Word {
	words := []value.Word{
		0, 1, 7, 8, 0xF, 0x10, 0x7F, 0x80, 0xFF, 0x100,
		0x7FFF, 0x8000, 0xFFFF, 0x1_0000, 0x1234_0000, 0xFFFF_0000,
		0x7F00_007F, 0x8080_8080, 0x1200_0034, 0xFFFF_FFFF,
		0xFFFF_FFF8, 0xFFFF_FF80, 0xFFFF_8000, 0xDEAD_BEEF,
	}
	// A deterministic pseudorandom sweep on top of the edge cases.
	x := uint32(0x9E3779B9)
	for i := 0; i < 4096; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		words = append(words, x)
	}
	return words
}

func TestFPInlineRowsMatchTable(t *testing.T) {
	masks := []uint32{0, 0x3, 0xF, 0xFF, 0x1FF, 0xFFFF, 0x00FF_00FF, 0xFFFF_FFFF}
	codecs := map[string]*fpCodec{
		"fpcomp": {scheme: FPComp},
	}
	codecs["fpvaxx"] = NewCodec(FPVaxx, DictConfig{}, 10, 0).(*fpCodec)
	for name, c := range codecs {
		// The reference and the scalar encoder consult the same budget
		// object; PerWord budgets are stateless per call, so back-to-back
		// evaluation sees identical budget state.
		for _, dt := range []value.DataType{value.Int32, value.Float32} {
			for _, mask := range masks {
				for _, w := range sampleWords() {
					got := encodeWordOf(c, w, mask, dt)
					want := refEncodeWord(c, w, mask, dt)
					if got != want {
						t.Fatalf("%s: encodeWord(%#x, mask %#x, %v) = %+v, table reference = %+v",
							name, w, mask, dt, got, want)
					}
				}
			}
		}
	}
}

// TestFPInlineRowWidths pins each row's transmitted field width — the
// encoder's bit count and the decoder's fpDataBits entry — against the
// table row of the same prefix, so a table edit that changes a width
// cannot silently desynchronize either side.
func TestFPInlineRowWidths(t *testing.T) {
	c := &fpCodec{scheme: FPComp}
	cases := []struct {
		word   value.Word
		prefix uint32
	}{
		{0x0000_0005, fpSE4},
		{0x0000_0075, fpSE8},
		{0x0000_4321, fpSE16},
		{0x4321_0000, fpHalfZero},
		{0x0012_0034, fpTwoHalfSE},
	}
	for _, tc := range cases {
		enc := encodeWordOf(c, tc.word, 0, value.Int32)
		p := fpPatternByPrefix(t, tc.prefix)
		if prefix := enc.code >> uint(p.dataBits); prefix != tc.prefix {
			t.Fatalf("encodeWord(%#x) chose prefix %03b, want %03b", tc.word, prefix, tc.prefix)
		}
		if enc.bits != fpPrefixBits+p.dataBits {
			t.Fatalf("prefix %03b: encoder width %d bits, table says %d", tc.prefix, enc.bits, fpPrefixBits+p.dataBits)
		}
		if int(fpDataBits[tc.prefix]) != p.dataBits {
			t.Fatalf("prefix %03b: decoder reads a %d-bit field, table says %d", tc.prefix, fpDataBits[tc.prefix], p.dataBits)
		}
	}
	if fpDataBits[fpZeroRun] != fpZeroRunLenBits || fpDataBits[fpRaw] != 32 || fpDataBits[0b110] != 0 {
		t.Fatalf("zero-run, raw or unused-prefix field width wrong: %v", fpDataBits)
	}
}

// fpCode packs one prefix and its field the way the encoder emits them,
// followed by zero bits up to a whole number of bytes.
func fpCode(prefix, data uint32) []byte {
	w := &bitWriter{}
	w.WriteBits(prefix, fpPrefixBits)
	w.WriteBits(data, int(fpDataBits[prefix]))
	return w.Bytes()
}

// TestFPDecodeSwitchMatchesTable is the decode mirror of
// TestFPInlineRowsMatchTable: for every prefix and every value of its
// data field, the word Decompress reconstructs is the word the table's
// decode produces (sampled for the 32-bit raw field).
func TestFPDecodeSwitchMatchesTable(t *testing.T) {
	c := &fpCodec{scheme: FPComp}
	decodeOne := func(prefix, data uint32) value.Word {
		blk, _ := c.Decompress(0, &Encoded{NumWords: 1, Payload: fpCode(prefix, data)})
		if len(blk.Words) != 1 {
			t.Fatalf("prefix %03b data %#x: decoded %d words, want 1", prefix, data, len(blk.Words))
		}
		return blk.Words[0]
	}
	for _, p := range fpPatterns {
		for data := uint32(0); data < 1<<uint(p.dataBits); data++ {
			if got, want := decodeOne(p.prefix, data), p.decode(data); got != want {
				t.Fatalf("prefix %03b data %#x: decoded %#x, table says %#x", p.prefix, data, got, want)
			}
		}
	}
	for _, w := range sampleWords() {
		if got := decodeOne(fpRaw, w); got != w {
			t.Fatalf("raw word %#x decoded as %#x", w, got)
		}
	}
	// A zero run of every length, cut off by the block and not.
	for run := 1; run <= fpMaxZeroRun; run++ {
		for _, numWords := range []int{run - 1, run, run + 1} {
			w := &bitWriter{}
			w.WriteBits(fpZeroRun<<fpZeroRunLenBits|uint32(run-1), fpPrefixBits+fpZeroRunLenBits)
			w.WriteBits(fpSE4<<4|5, fpPrefixBits+4)
			blk, _ := c.Decompress(0, &Encoded{NumWords: numWords, Payload: w.Bytes()})
			if len(blk.Words) != numWords {
				t.Fatalf("run %d into %d words: decoded %d words", run, numWords, len(blk.Words))
			}
			for i, got := range blk.Words {
				want := value.Word(0)
				if i == run {
					want = 5
				}
				if got != want {
					t.Fatalf("run %d into %d words: word %d = %#x, want %#x", run, numWords, i, got, want)
				}
			}
		}
	}
}

// TestFPDecodeDamagedPadsToNumWords: the unused prefix and a payload that
// ends early both stop the decode, and both leave a block of NumWords
// words whose undecoded tail is zero.
func TestFPDecodeDamagedPadsToNumWords(t *testing.T) {
	c := NewCodec(FPComp, DictConfig{}, 0, 0)
	blk := value.BlockFromI32([]int32{0x12345678, 5, -100, 1 << 20, 0x7FFFFFFF, 42, 0x23456789, 77}, false)
	enc := c.Compress(1, blk)
	check := func(what string, payload []byte, intact int) {
		t.Helper()
		damaged := *enc
		damaged.Payload = payload
		dec, _ := c.Decompress(0, &damaged)
		if len(dec.Words) != enc.NumWords {
			t.Fatalf("%s: decoded %d words, want %d", what, len(dec.Words), enc.NumWords)
		}
		for i, w := range dec.Words {
			if i < intact && w != blk.Words[i] {
				t.Fatalf("%s: word %d = %#x before the damage, want %#x", what, i, w, blk.Words[i])
			}
			if i >= intact && w != 0 {
				t.Fatalf("%s: word %d = %#x after the damage, want 0", what, i, w)
			}
		}
	}
	// Word 0 is raw (35 bits), word 1 a 7-bit code: cutting at byte 5
	// leaves word 0 intact and word 1's field short by two bits. No word
	// is zero, so each one's width is its spec-table row's.
	for cut := 0; cut < len(enc.Payload); cut++ {
		intact := 0
		for bits := 0; intact < len(blk.Words); intact++ {
			if bits += refEncodeWord(&fpCodec{scheme: FPComp}, blk.Words[intact], 0, value.Int32).bits; bits > 8*cut {
				break
			}
		}
		check("truncated", enc.Payload[:cut], intact)
	}
	// Overwrite word 1's prefix (bits 35..37) with the unused 110.
	bad := append([]byte(nil), enc.Payload...)
	bad[4] = bad[4]&^0b0001_1100 | 0b110<<2
	check("prefix 110", bad, 1)
}
