// Package oracle holds deliberately simple, obviously-correct reference
// implementations of the compression and approximation mechanisms, plus
// the invariant checkers the differential fuzz targets and golden-vector
// tests are built on. Nothing here is optimized: every reference codec
// works bit by bit in the most literal transcription of the paper's
// tables (Fig. 5 for FPC, the base-delta layout for BDI) so that a
// disagreement with internal/compress always points at the optimized
// path, never at the oracle.
//
// The two contracts under test are the ones APPROX-NoC's correctness
// story rests on (paper §3):
//
//  1. At an effective error threshold of 0 every codec path is bit-exact:
//     Decompress(Compress(block)) == block.
//  2. At a threshold of e percent, every word the destination observes
//     deviates from the original by a relative error of at most e/100,
//     and special floats (NaN, infinity, zero/denormal exponents) are
//     never approximated at all.
//
// CheckBlock asserts both, plus the structural invariants that hold for
// every scheme: encoded payloads never exceed the raw block plus the
// scheme's fixed header overhead and the payload byte slice agrees with
// the bit count. CheckPMTSync audits the dictionary schemes'
// encoder/decoder pattern-matching-table synchronization through the
// introspection hooks internal/compress exports for this purpose.
package oracle

import (
	"fmt"

	"approxnoc/internal/compress"
	"approxnoc/internal/value"
)

// errEps absorbs float64 rounding in the threshold comparison: the mask
// and budget guarantees are exact in real arithmetic, but the relative
// error itself is computed with one division that may round up.
const errEps = 1e-12

// MaxBits returns the largest payload the scheme may legally emit for an
// n-word block: the raw words plus the scheme's per-word or per-block
// header overhead. Anything above this is a compression bug, not a
// merely useless encoding.
func MaxBits(s compress.Scheme, n int) int {
	switch s {
	case compress.FPComp, compress.FPVaxx:
		return (3 + 32) * n // 3-bit prefix per word, raw worst case
	case compress.DIComp, compress.DIVaxx:
		return (1 + 32) * n // 1 hit/miss bit per word, raw worst case
	case compress.BDComp, compress.BDVaxx:
		return 3 + 32*n // 3-bit block mode, raw worst case
	default: // Baseline
		return 32 * n
	}
}

// EffectiveThreshold returns the error bound actually in force for a
// block: VAXX schemes honor the configured threshold only on blocks the
// annotation marked approximable; everything else must be exact.
func EffectiveThreshold(s compress.Scheme, blk *value.Block, thresholdPct int) int {
	if !s.IsVaxx() || !blk.Approximable {
		return 0
	}
	return thresholdPct
}

// CheckBlock validates one Compress/Decompress round trip against the
// paper's contracts. orig is the block handed to the encoder, enc the
// encoder's output, decoded the decoder's reconstruction, and
// thresholdPct the codec's configured error threshold in percent.
func CheckBlock(orig *value.Block, enc *compress.Encoded, decoded *value.Block, thresholdPct int) error {
	n := len(orig.Words)
	if enc.NumWords != n {
		return fmt.Errorf("oracle: encoded NumWords %d != %d input words", enc.NumWords, n)
	}
	if len(decoded.Words) != n {
		return fmt.Errorf("oracle: decoded %d words, want %d", len(decoded.Words), n)
	}
	if decoded.DType != orig.DType {
		return fmt.Errorf("oracle: decoded dtype %v, want %v", decoded.DType, orig.DType)
	}
	if decoded.Approximable != orig.Approximable {
		return fmt.Errorf("oracle: decoded approximable %v, want %v", decoded.Approximable, orig.Approximable)
	}
	if max := MaxBits(enc.Scheme, n); enc.Bits > max {
		return fmt.Errorf("oracle: %v payload of %d bits exceeds raw+header bound %d for %d words",
			enc.Scheme, enc.Bits, max, n)
	}
	if want := (enc.Bits + 7) / 8; len(enc.Payload) != want {
		return fmt.Errorf("oracle: payload holds %d bytes for %d bits, want %d", len(enc.Payload), enc.Bits, want)
	}

	bound := float64(EffectiveThreshold(enc.Scheme, orig, thresholdPct)) / 100
	for i := range orig.Words {
		ow, dw := orig.Words[i], decoded.Words[i]
		if bound == 0 {
			if ow != dw {
				return fmt.Errorf("oracle: word %d changed %#08x -> %#08x with exact contract in force", i, ow, dw)
			}
			continue
		}
		// Special floats bypass the AVCL (Fig. 4) in every scheme, so they
		// must survive bit-exactly even on approximable blocks.
		if orig.DType == value.Float32 && value.IsSpecialFloat(ow) && ow != dw {
			return fmt.Errorf("oracle: special float word %d approximated %#08x -> %#08x", i, ow, dw)
		}
		if re := RelError(ow, dw, orig.DType); re > bound+errEps {
			return fmt.Errorf("oracle: word %d error %g exceeds threshold %g (%#08x -> %#08x)",
				i, re, bound, ow, dw)
		}
	}
	return nil
}

// CheckPMTSync audits the dictionary-consistency protocol between one
// encoder/decoder codec pair after the notification traffic has settled:
// every live encoder mapping toward decNode must name a valid decoder
// entry holding exactly the original pattern the encoder recorded, and
// the decoder must know this encoder maps it (the valid bit of Fig. 7b).
// Codecs that do not expose dictionary introspection are skipped;
// wrappers (e.g. the adaptive controller) are looked through.
func CheckPMTSync(encoder, decoder compress.Codec, encNode, decNode int) error {
	e, ok := compress.As[compress.DictIntrospector](encoder)
	if !ok {
		return nil
	}
	d, ok := compress.As[compress.DictIntrospector](decoder)
	if !ok {
		return nil
	}
	for _, m := range e.EncoderMappings(decNode) {
		pat, _, valid := d.DecoderEntry(m.Index)
		if !valid {
			return fmt.Errorf("oracle: encoder %d maps pattern %#08x to decoder %d slot %d, which is invalid",
				encNode, m.Pattern, decNode, m.Index)
		}
		if pat != m.Pattern {
			return fmt.Errorf("oracle: encoder %d slot %d pattern %#08x desynced from decoder %d pattern %#08x",
				encNode, m.Index, m.Pattern, decNode, pat)
		}
		if !d.DecoderMapsEncoder(m.Index, encNode) {
			return fmt.Errorf("oracle: decoder %d slot %d lost the valid bit for encoder %d", decNode, m.Index, encNode)
		}
	}
	return nil
}
