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
	scheme  Scheme
	avcl    *approx.AVCL
	stats   OpStats
	scratch encodeScratch
}

// init makes c the empty codec of scheme s, with an AVCL at avclPct (in
// range) for BD-VAXX: a new codec and a recycled one leave it alike.
func (c *bdiCodec) init(s Scheme, avclPct int) {
	*c = bdiCodec{scheme: s, avcl: vaxxAVCL(c.avcl, s, avclPct), scratch: c.scratch.kept()}
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

// fits reports whether the whole block encodes at one delta width,
// approximating out-of-range words when the codec and annotation allow.
func (c *bdiCodec) fits(blk *value.Block, base value.Word, bits uint) bool {
	for _, w := range blk.Words {
		delta := int64(int32(w)) - int64(int32(base))
		if fitsSigned(delta, bits) {
			continue
		}
		if c.avcl == nil || !blk.Approximable {
			return false
		}
		if blk.DType == value.Float32 {
			// Deltas on raw float words do not bound value error across
			// exponent boundaries; BD-VAXX approximates integers only.
			return false
		}
		decoded := value.Word(int32(int64(int32(base)) + clampSigned(delta, bits)))
		if !c.avcl.WithinThreshold(w, decoded, blk.DType) {
			return false
		}
	}
	return true
}

func (c *bdiCodec) Compress(dst int, blk *value.Block) *Encoded {
	c.scratch.w.Reset()
	return c.compress(blk, &c.scratch.enc, &c.scratch.w)
}

func (c *bdiCodec) compress(blk *value.Block, enc *Encoded, w *bitWriter) *Encoded {
	n := uint64(len(blk.Words))
	c.stats.BlocksIn++
	c.stats.WordsIn += n
	c.stats.BitsIn += 32 * n
	c.stats.EncodeOps += n

	// Worst case is raw mode: the mode header plus 32 bits per word.
	w.grow(bdModeBits + 32*len(blk.Words))

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
		c.stats.WordsExact += n
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
			if !c.fits(blk, base, width.bits) {
				continue
			}
			w.WriteBits(width.mode, bdModeBits)
			w.WriteBits(base, 32)
			mask := uint32(1)<<width.bits - 1
			for _, word := range blk.Words {
				// A fitting delta clamps to itself; an out-of-range one
				// clamps to the approximation fits admitted.
				delta := clampSigned(int64(int32(word))-int64(int32(base)), width.bits)
				w.WriteBits(uint32(delta)&mask, int(width.bits))
				if decoded := value.Word(int32(int64(int32(base)) + delta)); decoded == word {
					c.stats.WordsExact++
				} else {
					c.stats.WordsApprox++
					c.stats.SumRelError += value.RelError(word, decoded, blk.DType)
				}
			}
			encoded = true
			break
		}
		if !encoded {
			w.WriteBits(bdRaw, bdModeBits)
			for _, word := range blk.Words {
				w.WriteBits(word, 32)
			}
			c.stats.WordsRaw += n
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
	}
	return enc
}

func (c *bdiCodec) Decompress(src int, enc *Encoded) (*value.Block, []Notification) {
	blk := value.NewBlock(enc.NumWords, enc.DType, enc.Approximable)
	return blk, c.DecompressInto(blk, src, enc)
}

func (c *bdiCodec) DecompressInto(dst *value.Block, src int, enc *Encoded) []Notification {
	r := newBitReader(enc.Payload)
	words := decodeTarget(dst, enc)
	c.stats.BlocksDecoded++
	c.stats.WordsDecoded += uint64(enc.NumWords)
	c.stats.DecodeOps += uint64(enc.NumWords)
	if enc.NumWords == 0 {
		return nil
	}
	mode := r.ReadBits(bdModeBits)
	switch mode {
	case bdZero:
		// Words already zero.
	case bdRaw:
		for i := range words {
			words[i] = r.ReadBits(32)
		}
	default:
		var bits uint
		for _, width := range bdWidths {
			if width.mode == mode {
				bits = width.bits
			}
		}
		base := int64(int32(r.ReadBits(32)))
		for i := range words {
			raw := r.ReadBits(int(bits))
			// Sign extend the delta field.
			shift := 32 - bits
			delta := int64(int32(raw<<shift) >> shift)
			words[i] = value.Word(int32(base + delta))
		}
	}
	return nil
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
