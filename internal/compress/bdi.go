package compress

import (
	"approxnoc/internal/approx"
	"approxnoc/internal/value"
)

// Base-delta compression after Zhan et al. [36] (related work §6): a
// block whose words cluster around a base value is transmitted as the
// base plus narrow per-word deltas. The whole block must fit one delta
// width — BDI's per-block, not per-word, decision — which makes it a
// contrasting comparator to FP-COMP/DI-COMP.
//
// BD-VAXX extends it with VAXX value approximation: when a word's delta
// does not fit the width, the encoder may clamp the word to the nearest
// representable value, provided the deviation passes the AVCL's error
// threshold. This is the "plug and play" claim of §3.2 exercised on a
// third substrate.
const (
	bdModeBits = 3

	bdRaw     = 0 // uncompressed block
	bdZero    = 1 // all-zero block
	bdDelta4  = 2 // 32-bit base + 4-bit deltas
	bdDelta8  = 3 // 32-bit base + 8-bit deltas
	bdDelta16 = 4 // 32-bit base + 16-bit deltas
)

var bdWidths = []struct {
	mode uint32
	bits uint
}{
	{bdDelta4, 4},
	{bdDelta8, 8},
	{bdDelta16, 16},
}

// bdiCodec implements BD-COMP, and BD-VAXX when avcl is non-nil.
type bdiCodec struct {
	scheme Scheme
	avcl   *approx.AVCL
	stats  OpStats
	// tryScratch holds the candidate word encodings for the width attempt
	// in flight; winners are copied out, so the buffer is safe to reuse on
	// the next attempt (and across blocks).
	tryScratch []WordEnc
	scratch    encodeScratch
}

// NewBDComp returns the exact base-delta codec.
func NewBDComp() Codec { return &bdiCodec{scheme: BDComp} }

// NewBDVaxx returns base-delta with VAXX approximation at the given
// error threshold (%).
func NewBDVaxx(thresholdPct int) (Codec, error) {
	a, err := approx.New(thresholdPct)
	if err != nil {
		return nil, err
	}
	return &bdiCodec{scheme: BDVaxx, avcl: a}, nil
}

func (c *bdiCodec) Scheme() Scheme { return c.scheme }

// fitsSigned reports whether delta fits a signed field of the width.
func fitsSigned(delta int64, bits uint) bool {
	lo := -(int64(1) << (bits - 1))
	hi := int64(1)<<(bits-1) - 1
	return delta >= lo && delta <= hi
}

func clampSigned(delta int64, bits uint) int64 {
	lo := -(int64(1) << (bits - 1))
	hi := int64(1)<<(bits-1) - 1
	if delta < lo {
		return lo
	}
	if delta > hi {
		return hi
	}
	return delta
}

// tryWidth attempts to encode the whole block at one delta width,
// approximating out-of-range words when the codec and annotation allow.
func (c *bdiCodec) tryWidth(blk *value.Block, base value.Word, bits uint) ([]WordEnc, bool) {
	if cap(c.tryScratch) < len(blk.Words) {
		c.tryScratch = make([]WordEnc, len(blk.Words))
	}
	words := c.tryScratch[:len(blk.Words)]
	for i, w := range blk.Words {
		delta := int64(int32(w)) - int64(int32(base))
		if fitsSigned(delta, bits) {
			words[i] = WordEnc{Kind: ExactWord, Bits: int(bits), Orig: w, Decoded: w}
			continue
		}
		if c.avcl == nil || !blk.Approximable {
			return nil, false
		}
		if blk.DType == value.Float32 {
			// Deltas on raw float words do not bound value error across
			// exponent boundaries; BD-VAXX approximates integers only.
			return nil, false
		}
		clamped := clampSigned(delta, bits)
		decoded := value.Word(int32(int64(int32(base)) + clamped))
		if !c.avcl.WithinThreshold(w, decoded, blk.DType) {
			return nil, false
		}
		words[i] = WordEnc{Kind: ApproxWord, Bits: int(bits), Orig: w, Decoded: decoded}
	}
	return words, true
}

func (c *bdiCodec) Compress(dst int, blk *value.Block) *Encoded {
	c.scratch.w.Reset()
	enc := c.compress(blk, &c.scratch.enc, &c.scratch.w, c.scratch.words[:0])
	c.scratch.words = enc.Words // keep the grown capacity for reuse
	return enc
}

func (c *bdiCodec) compress(blk *value.Block, enc *Encoded, w *bitWriter, words []WordEnc) *Encoded {
	c.stats.BlocksIn++
	c.stats.WordsIn += uint64(len(blk.Words))
	c.stats.BitsIn += uint64(32 * len(blk.Words))
	c.stats.EncodeOps += uint64(len(blk.Words))

	// Worst case is raw mode: the mode header plus 32 bits per word.
	w.grow(bdModeBits + 32*len(blk.Words))
	// take returns a fully-overwritten result buffer of n entries, reusing
	// the caller-provided capacity when it suffices.
	take := func(n int) []WordEnc {
		if cap(words) >= n {
			return words[:n]
		}
		return make([]WordEnc, n)
	}
	words = words[:0]

	allZero := true
	for _, word := range blk.Words {
		if word != 0 {
			allZero = false
			break
		}
	}
	switch {
	case len(blk.Words) == 0:
		w.WriteBits(bdRaw, bdModeBits)
	case allZero:
		w.WriteBits(bdZero, bdModeBits)
		words = take(len(blk.Words))
		for i := range words {
			words[i] = WordEnc{Kind: ExactWord, Bits: 0}
		}
	default:
		base := blk.Words[0]
		encoded := false
		for _, width := range bdWidths {
			// A delta mode spends 32 base bits plus width per word; skip
			// widths that cannot beat raw mode (32 per word), or tiny
			// blocks would expand past the raw+header size bound (found
			// by FuzzBDIRoundTrip; seed committed under
			// internal/compress/testdata/fuzz).
			if 32+int(width.bits)*len(blk.Words) > 32*len(blk.Words) {
				continue
			}
			ws, ok := c.tryWidth(blk, base, width.bits)
			if !ok {
				continue
			}
			w.WriteBits(width.mode, bdModeBits)
			w.WriteBits(base, 32)
			for _, we := range ws {
				delta := int64(int32(we.Decoded)) - int64(int32(base))
				mask := uint32(1)<<width.bits - 1
				w.WriteBits(uint32(delta)&mask, int(width.bits))
			}
			words = take(len(ws))
			copy(words, ws)
			encoded = true
			break
		}
		if !encoded {
			w.WriteBits(bdRaw, bdModeBits)
			words = take(len(blk.Words))
			for i, word := range blk.Words {
				w.WriteBits(word, 32)
				words[i] = WordEnc{Kind: RawWord, Bits: 32, Orig: word, Decoded: word}
			}
		}
	}

	for i := range words {
		switch words[i].Kind {
		case RawWord:
			c.stats.WordsRaw++
		case ExactWord:
			c.stats.WordsExact++
		case ApproxWord:
			c.stats.WordsApprox++
			c.stats.SumRelError += value.RelError(words[i].Orig, words[i].Decoded, blk.DType)
		}
	}
	c.stats.BitsOut += uint64(w.Len())
	*enc = Encoded{
		Scheme:       c.scheme,
		NumWords:     len(blk.Words),
		DType:        blk.DType,
		Approximable: blk.Approximable,
		Bits:         w.Len(),
		Payload:      w.Bytes(),
		Words:        words,
	}
	return enc
}

func (c *bdiCodec) Decompress(src int, enc *Encoded) (*value.Block, []Notification) {
	r := newBitReader(enc.Payload)
	blk := value.NewBlock(enc.NumWords, enc.DType, enc.Approximable)
	c.stats.BlocksDecoded++
	c.stats.WordsDecoded += uint64(enc.NumWords)
	c.stats.DecodeOps += uint64(enc.NumWords)
	if enc.NumWords == 0 {
		return blk, nil
	}
	mode := r.ReadBits(bdModeBits)
	switch mode {
	case bdZero:
		// Words already zero.
	case bdRaw:
		for i := range blk.Words {
			blk.Words[i] = r.ReadBits(32)
		}
	default:
		var bits uint
		for _, width := range bdWidths {
			if width.mode == mode {
				bits = width.bits
			}
		}
		base := int64(int32(r.ReadBits(32)))
		for i := range blk.Words {
			raw := r.ReadBits(int(bits))
			// Sign extend the delta field.
			shift := 32 - bits
			delta := int64(int32(raw<<shift) >> shift)
			blk.Words[i] = value.Word(int32(base + delta))
		}
	}
	return blk, nil
}

func (c *bdiCodec) HandleNotification(Notification) []Notification { return nil }

func (c *bdiCodec) Stats() OpStats {
	s := c.stats
	if c.avcl != nil {
		as := c.avcl.Stats()
		s.AVCLMaskHits += as.MaskHits
		s.AVCLClips += as.Clips
		s.AVCLBypasses += as.Bypasses
	}
	return s
}
