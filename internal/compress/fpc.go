package compress

import (
	"fmt"

	"approxnoc/internal/approx"
	"approxnoc/internal/quality"
	"approxnoc/internal/value"
)

// The static frequent-pattern table of Fig. 5. Each pattern is identified
// by a 3-bit prefix and transmits a fixed-width adjunct data field; the
// decoder reconstructs the full word from that field alone. Prefix 110 is
// unused, exactly as in the paper's table.
const (
	fpPrefixBits = 3

	fpZeroRun   = 0b000 // run of zero words; adjunct = 3-bit run length
	fpSE4       = 0b001 // 4-bit sign-extended
	fpSE8       = 0b010 // one byte sign-extended
	fpSE16      = 0b011 // halfword sign-extended
	fpHalfZero  = 0b100 // halfword padded with a zero halfword
	fpTwoHalfSE = 0b101 // two halfwords, each a byte sign-extended
	fpRaw       = 0b111 // uncompressed word

	fpZeroRunLenBits = 3
	fpMaxZeroRun     = 1 << fpZeroRunLenBits // up to 8 zero words per code
)

func signExtend(v uint32, fromBits uint) uint32 {
	shift := 32 - fromBits
	return uint32(int32(v<<shift) >> shift)
}

func se8to16(b uint32) uint32 {
	return uint32(uint16(int16(int8(uint8(b)))))
}

// fpDataBits is the adjunct field width each prefix announces: what the
// decoder must know before it can read the field (the unused prefix 110
// announces none).
var fpDataBits = [1 << fpPrefixBits]uint8{
	fpZeroRun: fpZeroRunLenBits, fpSE4: 4, fpSE8: 8, fpSE16: 16,
	fpHalfZero: 16, fpTwoHalfSE: 16, fpRaw: 32,
}

// fpCodec implements FP-COMP, and FP-VAXX when avcl is non-nil. The
// budget gates every approximate match: per-word for the paper's shipped
// design, windowed-cumulative for the §7 future-work extension.
type fpCodec struct {
	scheme  Scheme
	avcl    *approx.AVCL
	budget  quality.Budget
	stats   OpStats
	scratch encodeScratch
	lease
}

// encodeScratch is the per-codec encode state behind every Compress: the
// bit writer and the Encoded header are reused across calls, which is why
// a returned *Encoded is codec-owned (see Codec.Compress). One codec is
// single-writer by the Codec concurrency contract, so no locking is
// needed.
type encodeScratch struct {
	w   bitWriter
	enc Encoded
}

// kept is the scratch a new codec starts with, on s's writer storage.
func (s *encodeScratch) kept() encodeScratch {
	return encodeScratch{w: bitWriter{buf: s.w.buf[:0]}}
}

// NewFPComp returns the exact frequent-pattern codec.
func NewFPComp() Codec {
	c := new(fpCodec)
	c.init(FPComp, 0, nil)
	return c
}

// NewFPVaxx returns the FP-VAXX codec with the given error threshold (%).
func NewFPVaxx(thresholdPct int) (Codec, error) {
	b, err := quality.NewPerWord(thresholdPct)
	if err != nil {
		return nil, err
	}
	c := new(fpCodec)
	c.init(FPVaxx, thresholdPct, b)
	return c, nil
}

// NewFPVaxxWindowed returns FP-VAXX with the paper's future-work window
// policy (§7): masks are computed at boost times the threshold, and a
// cumulative budget of window x threshold gates the total error, keeping
// the mean window error at the per-word level while admitting more
// matches.
func NewFPVaxxWindowed(thresholdPct, window int, boost float64) (Codec, error) {
	boosted, b, err := windowBudget(thresholdPct, window, boost)
	if err != nil {
		return nil, err
	}
	c := new(fpCodec)
	c.init(FPVaxx, boosted, b)
	return c, nil
}

// windowBudget is the §7 windowed budget at thresholdPct, and the boosted
// threshold the AVCL of a windowed codec masks at.
func windowBudget(thresholdPct, window int, boost float64) (int, *quality.Window, error) {
	boosted := int(float64(thresholdPct) * boost)
	if boosted > 100 {
		boosted = 100
	}
	if err := checkThreshold(boosted); err != nil {
		return 0, nil, err
	}
	b, err := quality.NewWindow(thresholdPct, window, boost)
	if err != nil {
		return 0, nil, err
	}
	return boosted, b, nil
}

// init makes c the empty codec of scheme s with budget b, and for a VAXX
// scheme an AVCL at avclPct (in range): a new codec and a recycled one
// leave it alike.
func (c *fpCodec) init(s Scheme, avclPct int, b quality.Budget) {
	*c = fpCodec{scheme: s, avcl: vaxxAVCL(c.avcl, s, avclPct), budget: b, scratch: c.scratch.kept()}
}

func (c *fpCodec) Scheme() Scheme { return c.scheme }

// SetThreshold adjusts the error threshold at run time (§3.1: the
// compiler/firmware "can be dynamically adjusted at run time"). FP-VAXX
// is stateless across blocks, so the change takes effect on the next
// compressed block. The AVCL switches in place, keeping the counters the
// codec folds into Stats, and the shared per-word budget swaps in, so a
// switch allocates nothing. FP-COMP (exact) and the windowed FP-VAXX,
// whose budget is not per-word, reject adjustment.
func (c *fpCodec) SetThreshold(thresholdPct int) error {
	if c.scheme != FPVaxx {
		return fmt.Errorf("compress: %v has no error threshold", c.scheme)
	}
	if _, ok := c.budget.(*quality.PerWord); !ok {
		return fmt.Errorf("compress: windowed %v keeps its threshold", c.scheme)
	}
	if err := c.avcl.SetThreshold(thresholdPct); err != nil {
		return err
	}
	c.budget, _ = quality.NewPerWord(thresholdPct) // in range: the AVCL took it
	return nil
}

// wordMask returns the don't-care mask the AVCL computes for this word, or
// 0 for exact matching (non-VAXX codec, non-approximable block, special
// floats).
func (c *fpCodec) wordMask(w value.Word, blk *value.Block) (mask uint32) {
	if c.avcl != nil && blk.Approximable {
		mask, _ = c.avcl.MaskWord(w, blk.DType) // a bypassed word's mask is 0
	}
	return mask
}

func (c *fpCodec) Compress(dst int, blk *value.Block) *Encoded {
	c.scratch.w.Reset()
	return c.compress(blk, &c.scratch.enc, &c.scratch.w)
}

func (c *fpCodec) compress(blk *value.Block, enc *Encoded, w *bitWriter) *Encoded {
	// Worst case every word goes raw (3-bit prefix + 32 bits); one exact
	// allocation up front instead of append-driven growth.
	w.grow((fpPrefixBits+32)*len(blk.Words) + fpZeroRunLenBits)
	c.stats.BlocksIn++
	c.stats.WordsIn += uint64(len(blk.Words))
	c.stats.BitsIn += uint64(32 * len(blk.Words))

	i := 0
	for i < len(blk.Words) {
		word := blk.Words[i]
		mask := c.wordMask(word, blk)
		c.stats.EncodeOps++
		c.stats.CamSearches++ // one parallel PMT search per word

		// Zero run: highest-priority row. A word joins the run when all its
		// unmasked bits are zero and the error budget admits the rounding.
		if word&^mask == 0 {
			start := i
			for {
				kind, relErr, ok := c.admit(word, 0, blk.DType)
				if !ok {
					break
				}
				if c.budget != nil {
					c.budget.Advance()
				}
				c.record(kind, relErr)
				if i++; i-start == fpMaxZeroRun || i == len(blk.Words) {
					break
				}
				word = blk.Words[i]
				if mask = c.wordMask(word, blk); word&^mask != 0 {
					break
				}
			}
			if run := i - start; run > 0 {
				// Prefix and run length are adjacent fixed-width fields; one
				// fused write emits both (fpZeroRun is the all-zero prefix).
				w.WriteBits(fpZeroRun<<fpZeroRunLenBits|uint32(run-1), fpPrefixBits+fpZeroRunLenBits)
				continue
			}
			// The structural zero match was refused by the error budget;
			// fall through to the regular pattern rows.
		}

		kind, bits, code, _, relErr := c.encodeWord(word, mask, blk.DType)
		if c.budget != nil {
			c.budget.Advance()
		}
		if kind == RawWord {
			w.WriteBits(fpRaw, fpPrefixBits)
			w.WriteBits(word, 32)
		} else {
			w.WriteBits(code, bits)
		}
		c.record(kind, relErr)
		i++
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

// encodeWord matches one word the zero run did not take against the
// Fig. 5 rows in priority order — the smallest encoding that matches wins,
// which is the source of the paper's §5.3.1 observation that FP-VAXX may
// take an approximate high-priority match even when an exact
// lower-priority match exists. A row matches when the word the decoder
// would reconstruct from the row's field agrees with the word on every
// bit the mask cares about (mask == 0 is exact FP-COMP matching); the
// field is taken verbatim from the word, so error can only enter through
// don't-care bits. code is the prefix fused with the field, bits wide; a
// raw word's code is the word and goes out behind its prefix.
func (c *fpCodec) encodeWord(word value.Word, mask uint32, dt value.DataType) (kind WordKind, bits int, code uint32, decoded value.Word, relErr float64) {
	if d := signExtend(word&0xF, 4); (word^d)&^mask == 0 {
		if kind, relErr, ok := c.admit(word, d, dt); ok {
			return kind, fpPrefixBits + 4, fpSE4<<4 | word&0xF, d, relErr
		}
	}
	if d := signExtend(word&0xFF, 8); (word^d)&^mask == 0 {
		if kind, relErr, ok := c.admit(word, d, dt); ok {
			return kind, fpPrefixBits + 8, fpSE8<<8 | word&0xFF, d, relErr
		}
	}
	if d := signExtend(word&0xFFFF, 16); (word^d)&^mask == 0 {
		if kind, relErr, ok := c.admit(word, d, dt); ok {
			return kind, fpPrefixBits + 16, fpSE16<<16 | word&0xFFFF, d, relErr
		}
	}
	if d := word &^ 0xFFFF; (word^d)&^mask == 0 {
		if kind, relErr, ok := c.admit(word, d, dt); ok {
			return kind, fpPrefixBits + 16, fpHalfZero<<16 | word>>16, d, relErr
		}
	}
	if d := se8to16(word>>16)<<16 | se8to16(word); (word^d)&^mask == 0 {
		if kind, relErr, ok := c.admit(word, d, dt); ok {
			return kind, fpPrefixBits + 16, fpTwoHalfSE<<16 | word>>8&0xFF00 | word&0xFF, d, relErr
		}
	}
	return RawWord, fpPrefixBits + 32, word, word, 0
}

// admit commits a structural match: an exact one always, an approximate
// one when the error control logic admits the final deviation against
// the budget (§3.2; the windowed budget is the §7 extension). The relative
// error the budget evaluated is returned so stats recording can reuse it.
func (c *fpCodec) admit(word, decoded value.Word, dt value.DataType) (kind WordKind, relErr float64, ok bool) {
	if decoded == word {
		return ExactWord, 0, true
	}
	relErr = value.RelError(word, decoded, dt)
	return ApproxWord, relErr, c.budget != nil && c.budget.Allow(relErr)
}

// record folds one encoded word into the op stats; relErr is the error
// the budget check already computed (0 for exact and raw words).
func (c *fpCodec) record(kind WordKind, relErr float64) {
	switch kind {
	case RawWord:
		c.stats.WordsRaw++
	case ExactWord:
		c.stats.WordsExact++
	case ApproxWord:
		c.stats.WordsApprox++
		c.stats.SumRelError += relErr
	}
}

func (c *fpCodec) Decompress(src int, enc *Encoded) (*value.Block, []Notification) {
	blk := value.NewBlock(enc.NumWords, enc.DType, enc.Approximable)
	return blk, c.DecompressInto(blk, src, enc)
}

func (c *fpCodec) DecompressInto(dst *value.Block, src int, enc *Encoded) []Notification {
	r := newBitReader(enc.Payload)
	words := decodeTarget(dst, enc)
	// A read that runs past the payload returns a zero field, from which
	// every row reconstructs a zero word, and prefix 0 with run length 0 —
	// a one-word zero run — from then on: a truncated block decodes to its
	// end with the missing words zero, and the loop needs no failure test.
	for n := 0; n < len(words); n++ {
		c.stats.DecodeOps++
		switch prefix, data := r.ReadPrefixed(); prefix {
		case fpZeroRun:
			n += int(data) // the words are zero already; a run ends with the block
		case fpSE4:
			words[n] = signExtend(data, 4)
		case fpSE8:
			words[n] = signExtend(data, 8)
		case fpSE16:
			words[n] = signExtend(data, 16)
		case fpHalfZero:
			words[n] = data << 16
		case fpTwoHalfSE:
			words[n] = se8to16(data>>8)<<16 | se8to16(data)
		case fpRaw:
			words[n] = data
		default:
			// Damaged payload (prefix 110 is unused): stop decoding; the
			// remaining words stay zero.
			return nil
		}
	}
	c.stats.BlocksDecoded++
	c.stats.WordsDecoded += uint64(len(words))
	return nil
}

func (c *fpCodec) HandleNotification(Notification) []Notification { return nil }

func (c *fpCodec) Stats() OpStats {
	s := c.stats
	if c.avcl != nil {
		// Fold AVCL op counts in for the power model and the obs layer.
		as := c.avcl.Stats()
		s.EncodeOps += as.RangeComputes
		s.AVCLMaskHits += as.MaskHits
		s.AVCLClips += as.Clips
		s.AVCLBypasses += as.Bypasses
	}
	return s
}
