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
// highest-priority (smallest encoding) pattern first, which is the source
// of the paper's §5.3.1 observation that FP-VAXX may take an approximate
// high-priority match even when an exact lower-priority match exists.
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

// fpCodec implements FP-COMP, and FP-VAXX when avcl is non-nil. The
// budget gates every approximate match: per-word for the paper's shipped
// design, windowed-cumulative for the §7 future-work extension.
type fpCodec struct {
	scheme Scheme
	avcl   *approx.AVCL
	budget quality.Budget
	stats  OpStats
	// runScratch is reused across Compress calls for zero-run staging;
	// entries are copied into the result before the next reuse.
	// runErrScratch holds the per-word relative error alongside it, so the
	// budget check's RelError computation is not repeated for stats.
	runScratch    []WordEnc
	runErrScratch []float64
	scratch       encodeScratch
}

// encodeScratch is the per-codec encode state behind every Compress: the
// bit writer, the Words slice and the Encoded header are reused across
// calls, which is why a returned *Encoded is codec-owned (see
// Codec.Compress). One codec is single-writer by the Codec concurrency
// contract, so no locking is needed.
type encodeScratch struct {
	w     bitWriter
	words []WordEnc
	enc   Encoded
}

// NewFPComp returns the exact frequent-pattern codec.
func NewFPComp() Codec { return &fpCodec{scheme: FPComp} }

// NewFPVaxx returns the FP-VAXX codec with the given error threshold (%).
func NewFPVaxx(thresholdPct int) (Codec, error) {
	a, err := approx.New(thresholdPct)
	if err != nil {
		return nil, err
	}
	b, err := quality.NewPerWord(thresholdPct)
	if err != nil {
		return nil, err
	}
	return &fpCodec{scheme: FPVaxx, avcl: a, budget: b}, nil
}

// NewFPVaxxWindowed returns FP-VAXX with the paper's future-work window
// policy (§7): masks are computed at boost times the threshold, and a
// cumulative budget of window x threshold gates the total error, keeping
// the mean window error at the per-word level while admitting more
// matches.
func NewFPVaxxWindowed(thresholdPct, window int, boost float64) (Codec, error) {
	boosted := int(float64(thresholdPct) * boost)
	if boosted > 100 {
		boosted = 100
	}
	a, err := approx.New(boosted)
	if err != nil {
		return nil, err
	}
	b, err := quality.NewWindow(thresholdPct, window, boost)
	if err != nil {
		return nil, err
	}
	return &fpCodec{scheme: FPVaxx, avcl: a, budget: b}, nil
}

func (c *fpCodec) Scheme() Scheme { return c.scheme }

// SetThreshold adjusts the error threshold at run time (§3.1: the
// compiler/firmware "can be dynamically adjusted at run time"). FP-VAXX
// is stateless across blocks, so the change takes effect on the next
// compressed block. FP-COMP (exact) rejects adjustment.
func (c *fpCodec) SetThreshold(thresholdPct int) error {
	if c.scheme != FPVaxx {
		return fmt.Errorf("compress: %v has no error threshold", c.scheme)
	}
	a, err := approx.New(thresholdPct)
	if err != nil {
		return err
	}
	b, err := quality.NewPerWord(thresholdPct)
	if err != nil {
		return err
	}
	c.avcl, c.budget = a, b
	return nil
}

// wordMask returns the don't-care mask the AVCL computes for this word, or
// 0 for exact matching (non-VAXX codec, non-approximable block, special
// floats).
func (c *fpCodec) wordMask(w value.Word, blk *value.Block) uint32 {
	if c.avcl == nil || !blk.Approximable {
		return 0
	}
	mask, ok := c.avcl.MaskWord(w, blk.DType)
	if !ok {
		return 0
	}
	return mask
}

func (c *fpCodec) Compress(dst int, blk *value.Block) *Encoded {
	c.scratch.w.Reset()
	enc := c.compress(blk, &c.scratch.enc, &c.scratch.w, c.scratch.words[:0])
	c.scratch.words = enc.Words // keep the grown capacity for reuse
	return enc
}

func (c *fpCodec) compress(blk *value.Block, enc *Encoded, w *bitWriter, words []WordEnc) *Encoded {
	// Worst case every word goes raw (3-bit prefix + 32 bits); one exact
	// allocation up front instead of append-driven growth.
	w.grow((fpPrefixBits+32)*len(blk.Words) + fpZeroRunLenBits)
	if cap(words) < len(blk.Words) {
		words = make([]WordEnc, 0, len(blk.Words))
	}
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
		// The run loop reuses the mask already computed for the first word
		// rather than recomputing it through the AVCL.
		if word&^mask == 0 {
			run := 0
			runWords := c.runScratch[:0]
			runErrs := c.runErrScratch[:0]
			zw, zm := word, mask
			for {
				ok, kind, relErr := c.zeroMatch(zw, zm, blk.DType)
				if !ok {
					break
				}
				if c.budget != nil {
					c.budget.Advance()
				}
				runWords = append(runWords, WordEnc{Kind: kind, Orig: zw, Decoded: 0})
				runErrs = append(runErrs, relErr)
				run++
				i++
				if run >= fpMaxZeroRun || i >= len(blk.Words) {
					break
				}
				zw = blk.Words[i]
				zm = c.wordMask(zw, blk)
			}
			if run > 0 {
				// Prefix and run length are adjacent fixed-width fields; one
				// fused write emits both (fpZeroRun is the all-zero prefix).
				w.WriteBits(fpZeroRun<<fpZeroRunLenBits|uint32(run-1), fpPrefixBits+fpZeroRunLenBits)
				bitsPerWord := (fpPrefixBits + fpZeroRunLenBits + run - 1) / run
				for j := range runWords {
					runWords[j].Bits = bitsPerWord
					c.record(runWords[j].Kind, runErrs[j])
				}
				words = append(words, runWords...)
				c.runScratch, c.runErrScratch = runWords, runErrs
				continue
			}
			c.runScratch, c.runErrScratch = runWords, runErrs
			// The structural zero match was refused by the error budget;
			// fall through to the regular pattern rows.
		}

		we := c.encodeWord(word, mask, blk.DType)
		if c.budget != nil {
			c.budget.Advance()
		}
		if we.Kind == RawWord {
			w.WriteBits(fpRaw, fpPrefixBits)
			w.WriteBits(word, 32)
		} else {
			// Pattern rows carry at most 16 data bits, so prefix and data
			// fuse into a single sub-32-bit write.
			dataBits := we.Bits - fpPrefixBits
			w.WriteBits(we.prefix<<uint(dataBits)|we.data, we.Bits)
		}
		c.record(we.Kind, we.relErr)
		words = append(words, we.WordEnc)
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
		Words:        words,
	}
	return enc
}

type fpWordEnc struct {
	WordEnc
	prefix uint32
	data   uint32
	// relErr is the relative error the budget check already computed for an
	// approximate hit (0 for exact), recorded into stats without a second
	// RelError evaluation.
	relErr float64
}

// encodeWord matches one nonzero word against the pattern table in
// priority order, with the online error check guarding approximate hits.
// The rows are inlined here as straight bit arithmetic — the priority
// order and the budget semantics are exactly those of the fpPatterns
// table (the Decompress side and TestFPInlineRowsMatchTable keep the two
// in lock step); the table's closure indirection was the dominant cost
// in the per-word encode loop.
func (c *fpCodec) encodeWord(word value.Word, mask uint32, dt value.DataType) fpWordEnc {
	if enc, ok := c.tryPattern(word, mask, dt, fpSE4, 4, word&0xF, signExtend(word&0xF, 4)); ok {
		return enc
	}
	if enc, ok := c.tryPattern(word, mask, dt, fpSE8, 8, word&0xFF, signExtend(word&0xFF, 8)); ok {
		return enc
	}
	if enc, ok := c.tryPattern(word, mask, dt, fpSE16, 16, word&0xFFFF, signExtend(word&0xFFFF, 16)); ok {
		return enc
	}
	if enc, ok := c.tryPattern(word, mask, dt, fpHalfZero, 16, word>>16, (word>>16)<<16); ok {
		return enc
	}
	d := (word >> 8 & 0xFF00) | (word & 0xFF)
	if enc, ok := c.tryPattern(word, mask, dt, fpTwoHalfSE, 16, d, se8to16(d>>8)<<16|se8to16(d&0xFF)); ok {
		return enc
	}
	return fpWordEnc{
		WordEnc: WordEnc{Kind: RawWord, Bits: fpPrefixBits + 32, Orig: word, Decoded: word},
	}
}

// tryPattern commits one pre-computed pattern row if its reconstruction
// agrees with the word on every unmasked bit and — for approximate hits —
// the error control logic admits the final deviation against the budget
// (§3.2; the windowed budget is the §7 extension).
func (c *fpCodec) tryPattern(word value.Word, mask uint32, dt value.DataType, prefix uint32, dataBits int, data uint32, decoded value.Word) (fpWordEnc, bool) {
	if (word^decoded)&^mask != 0 {
		return fpWordEnc{}, false
	}
	kind, relErr := ExactWord, 0.0
	if decoded != word {
		relErr = value.RelError(word, decoded, dt)
		if c.budget == nil || !c.budget.Allow(relErr) {
			return fpWordEnc{}, false
		}
		kind = ApproxWord
	}
	return fpWordEnc{
		WordEnc: WordEnc{Kind: kind, Bits: fpPrefixBits + dataBits, Orig: word, Decoded: decoded},
		prefix:  prefix,
		data:    data,
		relErr:  relErr,
	}, true
}

// zeroMatch decides whether a word may join a zero run: exact zeros
// always may; structurally-zero approximations (all unmasked bits zero)
// additionally need the error budget's consent. The relative error the
// budget evaluated is returned so stats recording can reuse it.
func (c *fpCodec) zeroMatch(w value.Word, mask uint32, dt value.DataType) (ok bool, kind WordKind, relErr float64) {
	if w == 0 {
		return true, ExactWord, 0
	}
	if w&^mask != 0 {
		return false, RawWord, 0
	}
	relErr = value.RelError(w, 0, dt)
	if c.budget == nil || !c.budget.Allow(relErr) {
		return false, RawWord, 0
	}
	return true, ApproxWord, relErr
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

func fpPatternByPrefix(prefix uint32) fpPattern {
	p, ok := fpPatternLookup(prefix)
	if !ok {
		panic("compress: unknown frequent-pattern prefix")
	}
	return p
}

func fpPatternLookup(prefix uint32) (fpPattern, bool) {
	for _, p := range fpPatterns {
		if p.prefix == prefix {
			return p, true
		}
	}
	return fpPattern{}, false
}

func (c *fpCodec) Decompress(src int, enc *Encoded) (*value.Block, []Notification) {
	r := newBitReader(enc.Payload)
	blk := value.NewBlock(0, enc.DType, enc.Approximable)
	blk.Words = make([]value.Word, 0, enc.NumWords)
	for len(blk.Words) < enc.NumWords && !r.Failed() {
		c.stats.DecodeOps++
		prefix := r.ReadBits(fpPrefixBits)
		switch prefix {
		case fpZeroRun:
			run := int(r.ReadBits(fpZeroRunLenBits)) + 1
			for j := 0; j < run && len(blk.Words) < enc.NumWords; j++ {
				blk.Words = append(blk.Words, 0)
			}
		case fpRaw:
			blk.Words = append(blk.Words, r.ReadBits(32))
		default:
			p, ok := fpPatternLookup(prefix)
			if !ok {
				// Damaged payload (prefix 110 is unused): stop decoding;
				// the remaining words stay zero.
				blk.Words = blk.Words[:cap(blk.Words)]
				return blk, nil
			}
			data := r.ReadBits(p.dataBits)
			blk.Words = append(blk.Words, p.decode(data))
		}
	}
	c.stats.BlocksDecoded++
	c.stats.WordsDecoded += uint64(len(blk.Words))
	return blk, nil
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
