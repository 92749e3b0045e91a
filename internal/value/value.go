// Package value models the data that moves through the NoC: 32-bit words
// grouped into cache blocks, tagged with the metadata APPROX-NoC needs —
// the data type (integer or IEEE-754 float) and the approximable flag the
// compiler/programmer annotation supplies (paper §3.1).
package value

import (
	"fmt"
	"math"
)

// Word is the 4-byte unit every compression and approximation mechanism in
// the paper operates on.
type Word = uint32

// DataType describes how the words of a block are interpreted. The paper's
// framework conservatively compresses only blocks whose words all share one
// data type (§5.1), so the type lives on the block, not the word.
type DataType uint8

const (
	// Int32 marks two's-complement integer words.
	Int32 DataType = iota
	// Float32 marks IEEE-754 single-precision words.
	Float32
)

func (d DataType) String() string {
	switch d {
	case Int32:
		return "int32"
	case Float32:
		return "float32"
	default:
		return fmt.Sprintf("DataType(%d)", uint8(d))
	}
}

// WordsPerBlock is the default words-per-cache-block count: a 64 B cache
// line of 4 B words, matching the Table 1 system configuration.
const WordsPerBlock = 16

// Block is one cache block in flight.
type Block struct {
	Words        []Word
	DType        DataType
	Approximable bool
}

// inline is a block and its words in one object: Words slices w.
type inline[W any] struct {
	Block
	w W
}

// NewBlock returns a block with n zero words, len and cap n. At the
// power-of-two sizes from 4 to 64 words, which cover every block the
// wire, the codecs and the simulator make, the header and its words are
// one allocation in the size class the two took before (48, 64, 96, 160
// and 288 B); any other n allocates the words separately.
func NewBlock(n int, dt DataType, approximable bool) *Block {
	var b *Block
	switch n {
	case 4:
		s := new(inline[[4]Word])
		b, s.Words = &s.Block, s.w[:]
	case 8:
		s := new(inline[[8]Word])
		b, s.Words = &s.Block, s.w[:]
	case 16:
		s := new(inline[[16]Word])
		b, s.Words = &s.Block, s.w[:]
	case 32:
		s := new(inline[[32]Word])
		b, s.Words = &s.Block, s.w[:]
	case 64:
		s := new(inline[[64]Word])
		b, s.Words = &s.Block, s.w[:]
	default:
		b = &Block{Words: make([]Word, n)}
	}
	b.DType, b.Approximable = dt, approximable
	return b
}

// Clone returns a deep copy of the block.
func (b *Block) Clone() *Block {
	c := NewBlock(len(b.Words), b.DType, b.Approximable)
	copy(c.Words, b.Words)
	return c
}

// Bytes returns the uncompressed size of the block in bytes.
func (b *Block) Bytes() int { return 4 * len(b.Words) }

// Equal reports whether two blocks carry identical words and metadata.
func (b *Block) Equal(o *Block) bool {
	if b.DType != o.DType || b.Approximable != o.Approximable || len(b.Words) != len(o.Words) {
		return false
	}
	for i, w := range b.Words {
		if w != o.Words[i] {
			return false
		}
	}
	return true
}

// IEEE-754 single-precision field layout.
const (
	SignBit      = 31
	ExponentBits = 8
	MantissaBits = 23
	ExponentMask = 0xFF << MantissaBits
	MantissaMask = (1 << MantissaBits) - 1
)

// FloatExponent extracts the raw 8-bit exponent field of a float word.
func FloatExponent(w Word) uint32 { return (w >> MantissaBits) & 0xFF }

// IsSpecialFloat reports whether the float exponent detection logic of the
// AVCL (Fig. 4) must bypass approximation: exponent all zeros (zero or
// denormal) or all ones (infinity, NaN).
func IsSpecialFloat(w Word) bool {
	e := FloatExponent(w)
	return e == 0 || e == 0xFF
}

// Significand transforms a float word for the shared integer approximate
// logic: the 23-bit mantissa is extracted and concatenated with the
// implicit leading 1 to form a 24-bit significand, zero-padded to 32 bits
// (paper §3.2).
func Significand(w Word) uint32 {
	return (w & MantissaMask) | (1 << MantissaBits)
}

// RelError returns the relative value difference |orig-approx| / |orig|
// under the block's data type. Bit-identical words are 0, including NaNs
// with equal payloads. A zero original with a nonzero approximation
// counts as an error of 1 (100%), as does any bit change to a NaN or
// infinite original. An approximation that turns a finite original into
// NaN or an infinity returns +Inf so no finite threshold admits it — the
// arithmetic fallthrough used to yield NaN here, which compared false
// against every bound but poisoned any error accumulator it reached
// (found by FuzzVAXXErrorBound; seed committed under
// internal/approx/testdata/fuzz).
func RelError(orig, approx Word, dt DataType) float64 {
	if orig == approx {
		return 0
	}
	switch dt {
	case Float32:
		fo := float64(math.Float32frombits(orig))
		fa := float64(math.Float32frombits(approx))
		if math.IsNaN(fo) || math.IsInf(fo, 0) {
			return 1
		}
		if math.IsNaN(fa) || math.IsInf(fa, 0) {
			return math.Inf(1)
		}
		if fo == 0 {
			if fa == 0 {
				return 0
			}
			return 1
		}
		return math.Abs(fo-fa) / math.Abs(fo)
	default:
		io, ia := int64(int32(orig)), int64(int32(approx))
		if io == 0 {
			if ia == 0 {
				return 0
			}
			return 1
		}
		return math.Abs(float64(io-ia)) / math.Abs(float64(io))
	}
}

// F32 converts a float32 to its word representation.
func F32(f float32) Word { return math.Float32bits(f) }

// FromF32 converts a word to float32.
func FromF32(w Word) float32 { return math.Float32frombits(w) }

// I32 converts an int32 to its word representation.
func I32(v int32) Word { return uint32(v) }

// FromI32 converts a word to int32.
func FromI32(w Word) int32 { return int32(w) }

// BlockFromF32 packs float32 values into a block.
func BlockFromF32(vals []float32, approximable bool) *Block {
	b := NewBlock(len(vals), Float32, approximable)
	for i, v := range vals {
		b.Words[i] = F32(v)
	}
	return b
}

// BlockFromI32 packs int32 values into a block.
func BlockFromI32(vals []int32, approximable bool) *Block {
	b := NewBlock(len(vals), Int32, approximable)
	for i, v := range vals {
		b.Words[i] = I32(v)
	}
	return b
}
