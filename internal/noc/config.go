package noc

import "fmt"

// Config holds the Table 1 network parameters plus the §4.3 latency-hiding
// switches.
type Config struct {
	// VCs is the virtual channel count per port (Table 1: 4).
	VCs int
	// BufDepth is the per-VC buffer depth in flits (Table 1: 4).
	BufDepth int
	// FlitBytes is the flit width (Table 1: 64-bit flits).
	FlitBytes int
	// CompressLatency is the encoder pipeline depth in cycles
	// (§4.3: two cycles matching + one cycle encoding).
	CompressLatency int
	// MatchUnits, when positive, derives the matching latency from the
	// §4.3 hardware model instead of the fixed CompressLatency: with u
	// parallel matching units the match phase takes ceil(words/u) cycles,
	// plus one encode cycle. The paper provisions 8 parallel units, which
	// reproduces the 3-cycle total for a 16-word block.
	MatchUnits int
	// DecompressLatency is the decoder latency in cycles (§4.3: two).
	DecompressLatency int
	// OverlapVCArb overlaps header-flit VC arbitration with compression,
	// hiding one cycle of the compression latency (§4.3).
	OverlapVCArb bool
	// OverlapQueueing starts compression at NI enqueue time so queueing
	// delay absorbs the compression overhead (§4.3).
	OverlapQueueing bool
}

// DefaultConfig returns the Table 1 NoC parameters.
func DefaultConfig() Config {
	return Config{
		VCs:               4,
		BufDepth:          4,
		FlitBytes:         8,
		CompressLatency:   3,
		DecompressLatency: 2,
		OverlapVCArb:      true,
		OverlapQueueing:   true,
	}
}

func (c Config) validate() error {
	if c.VCs <= 0 || c.BufDepth <= 0 || c.FlitBytes <= 0 {
		return fmt.Errorf("noc: invalid config VCs=%d BufDepth=%d FlitBytes=%d", c.VCs, c.BufDepth, c.FlitBytes)
	}
	if c.CompressLatency < 0 || c.DecompressLatency < 0 {
		return fmt.Errorf("noc: negative codec latency")
	}
	return nil
}

// compressLatencyFor returns the encoder latency for a block of the
// given word count: the fixed pipeline depth, or the parallel-match-unit
// model when MatchUnits is set.
func (c Config) compressLatencyFor(words int) int {
	if c.MatchUnits <= 0 || words <= 0 {
		return c.CompressLatency
	}
	match := (words + c.MatchUnits - 1) / c.MatchUnits
	return match + 1 // plus the encode cycle
}

// effectiveCompressLatencyFor is compressLatencyFor after the VC-arb
// overlap optimization hides one cycle.
func (c Config) effectiveCompressLatencyFor(words int) int {
	l := c.compressLatencyFor(words)
	if c.OverlapVCArb && l > 0 {
		l--
	}
	return l
}

// dataPacketFlits returns the flit count for a compressed payload of the
// given byte size: one header flit plus the payload flits. The payload
// suffers internal fragmentation to whole flits, the effect §5.2.1 notes.
func (c Config) dataPacketFlits(payloadBytes int) int {
	n := (payloadBytes + c.FlitBytes - 1) / c.FlitBytes
	if n == 0 {
		n = 1
	}
	return 1 + n
}
