// Package compress implements the NoC data compression substrate the paper
// builds on and the two APPROX-NoC microarchitectures on top of it:
//
//   - FP-COMP: static frequent-pattern compression (Fig. 5), after
//     Alameldeen & Wood's FPC as adapted to NoCs by Das et al. [12].
//   - FP-VAXX: FP-COMP with don't-care-masked approximate matching (Fig. 6).
//   - DI-COMP: dynamic dictionary compression with encoder/decoder pattern
//     matching tables and decoder-driven updates (Fig. 7), after Jin et
//     al. [17].
//   - DI-VAXX: DI-COMP with a TCAM encoder PMT holding approximate patterns
//     plus original-pattern side storage for exact traffic (Fig. 8).
//
// Every scheme is a per-node Codec: it compresses blocks leaving the node
// and decompresses blocks arriving at it. Dictionary schemes additionally
// exchange Notifications (update/invalidate/ack control messages) that the
// network layer transports as single-flit control packets.
package compress

import (
	"fmt"

	"approxnoc/internal/value"
)

// Scheme identifies one of the evaluated mechanisms.
type Scheme int

const (
	// Baseline transmits blocks uncompressed.
	Baseline Scheme = iota
	// DIComp is exact dictionary-based compression.
	DIComp
	// DIVaxx is dictionary compression with VAXX approximation.
	DIVaxx
	// FPComp is exact frequent-pattern compression.
	FPComp
	// FPVaxx is frequent-pattern compression with VAXX approximation.
	FPVaxx
	// BDComp is exact base-delta compression (related work [36]), an
	// extension comparator beyond the paper's evaluated schemes.
	BDComp
	// BDVaxx is base-delta compression with VAXX approximation.
	BDVaxx
)

var schemeNames = map[Scheme]string{
	Baseline: "Baseline",
	DIComp:   "DI-COMP",
	DIVaxx:   "DI-VAXX",
	FPComp:   "FP-COMP",
	FPVaxx:   "FP-VAXX",
	BDComp:   "BD-COMP",
	BDVaxx:   "BD-VAXX",
}

func (s Scheme) String() string {
	if n, ok := schemeNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// IsVaxx reports whether the scheme includes the approximation engine.
func (s Scheme) IsVaxx() bool { return s == DIVaxx || s == FPVaxx || s == BDVaxx }

// AllSchemes lists the schemes in the order the paper's figures plot them.
func AllSchemes() []Scheme { return []Scheme{Baseline, DIComp, DIVaxx, FPComp, FPVaxx} }

// ExtendedSchemes additionally includes the base-delta comparators that
// go beyond the paper's evaluation.
func ExtendedSchemes() []Scheme {
	return []Scheme{Baseline, DIComp, DIVaxx, FPComp, FPVaxx, BDComp, BDVaxx}
}

// ParseScheme converts a name (as printed by String) to a Scheme.
func ParseScheme(name string) (Scheme, error) {
	for s, n := range schemeNames {
		if n == name {
			return s, nil
		}
	}
	return Baseline, fmt.Errorf("compress: unknown scheme %q", name)
}

// WordKind classifies the fate of one word at the encoder.
type WordKind uint8

const (
	// RawWord was transmitted uncompressed.
	RawWord WordKind = iota
	// ExactWord was compressed without value change.
	ExactWord
	// ApproxWord was compressed to an approximate reference value.
	ApproxWord
)

// Encoded is a compressed cache block in its network representation: the
// header and the packed bitstream, which is all the receiver reconstructs
// from.
type Encoded struct {
	Scheme       Scheme
	NumWords     int
	DType        value.DataType
	Approximable bool
	Bits         int    // total payload bits
	Payload      []byte // packed bitstream
}

// PayloadBytes returns the byte-rounded payload size.
func (e *Encoded) PayloadBytes() int { return (e.Bits + 7) / 8 }

// NotifKind distinguishes the dictionary-protocol control messages.
type NotifKind uint8

const (
	// NotifUpdate tells an encoder a decoder installed pattern at index.
	NotifUpdate NotifKind = iota
	// NotifInvalidate tells an encoder to drop its mapping for a pattern.
	NotifInvalidate
	// NotifInvalidateAck confirms an invalidation back to the decoder.
	NotifInvalidateAck
)

func (k NotifKind) String() string {
	switch k {
	case NotifUpdate:
		return "update"
	case NotifInvalidate:
		return "invalidate"
	case NotifInvalidateAck:
		return "invalidate-ack"
	default:
		return fmt.Sprintf("NotifKind(%d)", uint8(k))
	}
}

// Notification is one dictionary-consistency control message. The network
// layer carries it between nodes as a single-flit control packet.
type Notification struct {
	From    int
	To      int
	Kind    NotifKind
	Pattern value.Word
	DType   value.DataType
	Index   int
}

// OpStats aggregates per-codec operation counts for the quality and power
// models.
type OpStats struct {
	BlocksIn          uint64
	WordsIn           uint64
	WordsExact        uint64 // compressed, value preserved
	WordsApprox       uint64 // compressed, value approximated
	WordsRaw          uint64
	BitsIn            uint64
	BitsOut           uint64
	SumRelError       float64 // over all encoded words (exact words add 0)
	BlocksDecoded     uint64
	WordsDecoded      uint64
	CamSearches       uint64
	TcamSearches      uint64
	TableWrites       uint64
	NotificationsSent uint64
	NotificationsRecv uint64
	EncodeOps         uint64 // words passed through pattern encode logic
	DecodeOps         uint64 // words passed through decode logic
	AVCLMaskHits      uint64 // AVCL masks with at least one don't-care bit
	AVCLClips         uint64 // float masks clipped at the mantissa boundary
	AVCLBypasses      uint64 // special floats bypassing approximation
}

// Add accumulates other into s.
func (s *OpStats) Add(o OpStats) {
	s.BlocksIn += o.BlocksIn
	s.WordsIn += o.WordsIn
	s.WordsExact += o.WordsExact
	s.WordsApprox += o.WordsApprox
	s.WordsRaw += o.WordsRaw
	s.BitsIn += o.BitsIn
	s.BitsOut += o.BitsOut
	s.SumRelError += o.SumRelError
	s.BlocksDecoded += o.BlocksDecoded
	s.WordsDecoded += o.WordsDecoded
	s.CamSearches += o.CamSearches
	s.TcamSearches += o.TcamSearches
	s.TableWrites += o.TableWrites
	s.NotificationsSent += o.NotificationsSent
	s.NotificationsRecv += o.NotificationsRecv
	s.EncodeOps += o.EncodeOps
	s.DecodeOps += o.DecodeOps
	s.AVCLMaskHits += o.AVCLMaskHits
	s.AVCLClips += o.AVCLClips
	s.AVCLBypasses += o.AVCLBypasses
}

// CompressionRatio returns BitsIn / BitsOut (1.0 when nothing flowed).
func (s OpStats) CompressionRatio() float64 {
	if s.BitsOut == 0 {
		return 1
	}
	return float64(s.BitsIn) / float64(s.BitsOut)
}

// EncodedWordFraction returns the fraction of words that were compressed
// (exact + approximate).
func (s OpStats) EncodedWordFraction() float64 {
	if s.WordsIn == 0 {
		return 0
	}
	return float64(s.WordsExact+s.WordsApprox) / float64(s.WordsIn)
}

// ApproxWordFraction returns the fraction of words compressed approximately.
func (s OpStats) ApproxWordFraction() float64 {
	if s.WordsIn == 0 {
		return 0
	}
	return float64(s.WordsApprox) / float64(s.WordsIn)
}

// DataQuality returns 1 - mean relative word error, the paper's "data
// value quality" metric (Fig. 9, right axis).
func (s OpStats) DataQuality() float64 {
	if s.WordsIn == 0 {
		return 1
	}
	return 1 - s.SumRelError/float64(s.WordsIn)
}

// Codec is the per-node compression engine: one lives in every network
// interface and handles both directions plus dictionary control traffic.
//
// A Codec is NOT safe for concurrent use: every implementation mutates
// unguarded state on both paths (statistics on every call, and for the
// dictionary schemes the encoder/decoder pattern matching tables). A
// codec — and any Fabric holding codecs — must only ever be touched by
// one goroutine at a time. The sanctioned way to parallelize is the
// serve gateway's shard-ownership model (internal/serve): independent
// codec pools, each owned by a single worker goroutine.
type Codec interface {
	// Scheme identifies the mechanism.
	Scheme() Scheme
	// Compress encodes a block departing this node for node dst. The
	// returned *Encoded — header and Payload — is owned by the codec and
	// valid only until the next Compress on it; a caller that keeps an
	// encoding longer copies the header and Payload.
	Compress(dst int, blk *value.Block) *Encoded
	// Decompress reconstructs a block that arrived from node src, possibly
	// emitting dictionary notifications to send.
	Decompress(src int, enc *Encoded) (*value.Block, []Notification)
	// DecompressInto is Decompress into dst, reusing dst.Words if it fits.
	DecompressInto(dst *value.Block, src int, enc *Encoded) []Notification
	// HandleNotification delivers a dictionary control message addressed to
	// this node and returns any replies (e.g. invalidate acks). The batch
	// these three methods return is codec-owned and valid only until the
	// next of them on the codec.
	HandleNotification(n Notification) []Notification
	// Stats returns the codec's accumulated operation counts.
	Stats() OpStats
}

// baseline is the no-compression codec.
type baseline struct {
	stats   OpStats
	scratch encodeScratch
}

// NewBaseline returns the pass-through codec used for the Baseline bars.
func NewBaseline() Codec {
	b := new(baseline)
	b.init()
	return b
}

// init makes b the codec NewBaseline returns: a new codec and a recycled
// one leave it alike.
func (b *baseline) init() { *b = baseline{scratch: b.scratch.kept()} }

func (b *baseline) Scheme() Scheme { return Baseline }

func (b *baseline) Compress(dst int, blk *value.Block) *Encoded {
	b.scratch.w.Reset()
	return b.compress(blk, &b.scratch.enc, &b.scratch.w)
}

func (b *baseline) compress(blk *value.Block, enc *Encoded, w *bitWriter) *Encoded {
	w.grow(32 * len(blk.Words))
	for _, word := range blk.Words {
		w.WriteBits(word, 32)
	}
	b.stats.BlocksIn++
	b.stats.WordsIn += uint64(len(blk.Words))
	b.stats.WordsRaw += uint64(len(blk.Words))
	b.stats.BitsIn += uint64(32 * len(blk.Words))
	b.stats.BitsOut += uint64(w.Len())
	*enc = Encoded{
		Scheme:       Baseline,
		NumWords:     len(blk.Words),
		DType:        blk.DType,
		Approximable: blk.Approximable,
		Bits:         w.Len(),
		Payload:      w.Bytes(),
	}
	return enc
}

func (b *baseline) Decompress(src int, enc *Encoded) (*value.Block, []Notification) {
	blk := value.NewBlock(enc.NumWords, enc.DType, enc.Approximable)
	return blk, b.DecompressInto(blk, src, enc)
}

func (b *baseline) DecompressInto(dst *value.Block, src int, enc *Encoded) []Notification {
	r := newBitReader(enc.Payload)
	words := decodeTarget(dst, enc)
	for i := range words {
		words[i] = r.ReadBits(32)
	}
	b.stats.BlocksDecoded++
	b.stats.WordsDecoded += uint64(enc.NumWords)
	return nil
}

// decodeTarget readies dst to receive enc's block and returns its words:
// NumWords of them, all zero (decoders skip zero runs, all-zero blocks and
// undecodable words), in dst's own storage when it is large enough.
func decodeTarget(dst *value.Block, enc *Encoded) []value.Word {
	if cap(dst.Words) < enc.NumWords {
		dst.Words = make([]value.Word, enc.NumWords)
	} else {
		dst.Words = dst.Words[:enc.NumWords]
		clear(dst.Words)
	}
	dst.DType, dst.Approximable = enc.DType, enc.Approximable
	return dst.Words
}

func (b *baseline) HandleNotification(Notification) []Notification { return nil }

func (b *baseline) Stats() OpStats { return b.stats }

// CompressTransient is c.Compress. It remains only because benchmark/
// still calls it; remove it in the next PR that may edit benchmark/.
func CompressTransient(c Codec, dst int, blk *value.Block) *Encoded {
	return c.Compress(dst, blk)
}

// As returns c as a T, looking through wrappers (e.g. Adaptive) that
// expose Unwrap: the one capability probe for the optional codec
// interfaces (ThresholdAdjuster, DictIntrospector).
func As[T any](c Codec) (T, bool) {
	for c != nil {
		if t, ok := c.(T); ok {
			return t, true
		}
		u, ok := c.(interface{ Unwrap() Codec })
		if !ok {
			break
		}
		c = u.Unwrap()
	}
	var zero T
	return zero, false
}

// ThresholdAdjuster is implemented by codecs whose error threshold can be
// changed at run time (§3.1: the threshold "can be dynamically adjusted
// at run time").
type ThresholdAdjuster interface {
	// SetThreshold switches to a new error threshold in percent, taking
	// effect from the next compressed block.
	SetThreshold(thresholdPct int) error
}
