package compress

import (
	"fmt"

	"approxnoc/internal/value"
)

// AdaptiveConfig tunes the on/off controller.
type AdaptiveConfig struct {
	// WindowBlocks is the decision epoch length in compressed blocks.
	WindowBlocks int
	// MinRatio keeps compression enabled while the epoch's compression
	// ratio stays at or above this value.
	MinRatio float64
	// ProbeEvery re-enables compression for one epoch after this many
	// disabled epochs, so phase changes are noticed.
	ProbeEvery int
}

// DefaultAdaptiveConfig returns moderate controller settings.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{WindowBlocks: 64, MinRatio: 1.05, ProbeEvery: 4}
}

// Adaptive wraps a codec with the compression on/off control of Jin et
// al. [17], which the paper adopts as its DI-COMP substrate: the encoder
// monitors the efficacy of compression and bypasses the codec when it is
// not paying for its latency, probing periodically for phase changes.
// Bypassed blocks are emitted in baseline form; the packet header's
// scheme field tells the decoder (and the NI latency model) that no
// decompression is needed.
type Adaptive struct {
	inner Codec
	raw   Codec
	cfg   AdaptiveConfig

	on          bool
	epochBlocks int
	epochIn     uint64
	epochOut    uint64
	offEpochs   int
}

// NewAdaptive wraps inner with the on/off controller.
func NewAdaptive(inner Codec, cfg AdaptiveConfig) (*Adaptive, error) {
	if inner == nil {
		return nil, fmt.Errorf("compress: adaptive wrapper needs a codec")
	}
	if cfg.WindowBlocks <= 0 {
		return nil, fmt.Errorf("compress: adaptive window %d must be positive", cfg.WindowBlocks)
	}
	if cfg.MinRatio <= 0 {
		return nil, fmt.Errorf("compress: adaptive min ratio %g must be positive", cfg.MinRatio)
	}
	if cfg.ProbeEvery <= 0 {
		return nil, fmt.Errorf("compress: adaptive probe period %d must be positive", cfg.ProbeEvery)
	}
	return &Adaptive{inner: inner, raw: NewBaseline(), cfg: cfg, on: true}, nil
}

// AdaptiveFactory wraps every codec inner builds with the controller at
// DefaultAdaptiveConfig.
func AdaptiveFactory(inner func(node int) Codec) func(node int) Codec {
	return func(node int) Codec {
		a, err := NewAdaptive(inner(node), DefaultAdaptiveConfig())
		if err != nil {
			panic(err) // the default config is valid: inner returned a nil codec
		}
		return a
	}
}

// Scheme reports the wrapped scheme.
func (a *Adaptive) Scheme() Scheme { return a.inner.Scheme() }

// Unwrap exposes the wrapped codec so capability probes (dictionary
// introspection, snapshotting) can look through the controller.
func (a *Adaptive) Unwrap() Codec { return a.inner }

// On reports whether compression is currently enabled.
func (a *Adaptive) On() bool { return a.on }

// Compress encodes through the wrapped codec or bypasses it, per the
// controller state. The result belongs to whichever side encoded it and
// lives until the next Compress on the wrapper.
func (a *Adaptive) Compress(dst int, blk *value.Block) *Encoded {
	if !a.on {
		a.epochBlocks++
		if a.epochBlocks >= a.cfg.WindowBlocks {
			a.endOffEpoch()
		}
		return a.raw.Compress(dst, blk)
	}
	enc := a.inner.Compress(dst, blk)
	a.epochBlocks++
	a.epochIn += uint64(32 * len(blk.Words))
	a.epochOut += uint64(enc.Bits)
	if a.epochBlocks >= a.cfg.WindowBlocks {
		a.endOnEpoch()
	}
	return enc
}

func (a *Adaptive) endOnEpoch() {
	ratio := 1.0
	if a.epochOut > 0 {
		ratio = float64(a.epochIn) / float64(a.epochOut)
	}
	if ratio < a.cfg.MinRatio {
		a.on = false
		a.offEpochs = 0
	}
	a.epochBlocks, a.epochIn, a.epochOut = 0, 0, 0
}

func (a *Adaptive) endOffEpoch() {
	a.offEpochs++
	if a.offEpochs >= a.cfg.ProbeEvery {
		a.on = true // probe epoch
	}
	a.epochBlocks, a.epochIn, a.epochOut = 0, 0, 0
}

func (a *Adaptive) Decompress(src int, enc *Encoded) (*value.Block, []Notification) {
	blk := new(value.Block)
	return blk, a.DecompressInto(blk, src, enc)
}

// DecompressInto dispatches on the packet's scheme: bypassed packets
// decode raw, compressed ones through the wrapped codec.
func (a *Adaptive) DecompressInto(dst *value.Block, src int, enc *Encoded) []Notification {
	if enc.Scheme == Baseline {
		return a.raw.DecompressInto(dst, src, enc)
	}
	return a.inner.DecompressInto(dst, src, enc)
}

// HandleNotification forwards dictionary protocol traffic.
func (a *Adaptive) HandleNotification(n Notification) []Notification {
	return a.inner.HandleNotification(n)
}

// Stats merges the wrapped codec's and the bypass path's counters.
func (a *Adaptive) Stats() OpStats {
	s := a.inner.Stats()
	s.Add(a.raw.Stats())
	return s
}
