// Package traffic drives the NoC with the paper's workloads: synthetic
// patterns (uniform random, transpose, bit complement, hotspot) whose data
// packets carry benchmark value traces (§5.1 "synthetic workloads ... data
// being communicated can be kept constant and correlated with data locality
// in the benchmarks"), and bursty benchmark replays for the Fig. 9 runs.
package traffic

import (
	"fmt"

	"approxnoc/internal/noc"
	"approxnoc/internal/sim"
	"approxnoc/internal/value"
	"approxnoc/internal/workload"
)

// Pattern selects the spatial traffic pattern.
type Pattern int

const (
	// UniformRandom sends each packet to a uniformly chosen tile.
	UniformRandom Pattern = iota
	// Transpose sends tile (x,y) traffic to tile (y,x).
	Transpose
	// BitComplement sends tile i traffic to tile ^i (mod tiles).
	BitComplement
	// Hotspot concentrates a share of traffic on one tile.
	Hotspot
)

func (p Pattern) String() string {
	switch p {
	case UniformRandom:
		return "uniform-random"
	case Transpose:
		return "transpose"
	case BitComplement:
		return "bit-complement"
	case Hotspot:
		return "hotspot"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// ParsePattern converts a name to a Pattern.
func ParsePattern(s string) (Pattern, error) {
	for _, p := range []Pattern{UniformRandom, Transpose, BitComplement, Hotspot} {
		if p.String() == s {
			return p, nil
		}
	}
	return UniformRandom, fmt.Errorf("traffic: unknown pattern %q", s)
}

// Config parameterizes an injector.
type Config struct {
	Pattern Pattern
	// FlitRate is the offered load in flits/cycle/tile, accounted in
	// uncompressed flit sizes so the offered load is identical across
	// compression schemes.
	FlitRate float64
	// DataRatio is the data-to-total packet ratio (Fig. 12 uses 0.25).
	DataRatio float64
	// HotspotTile receives the concentrated share under Hotspot.
	HotspotTile int
	// HotspotFrac is that share (default 0.2).
	HotspotFrac float64
	// Source supplies data packet payload values.
	Source *workload.Source
	// Seed drives destination and arrival randomness.
	Seed uint64
	// Bursty turns on the per-tile on/off injection process.
	Bursty             bool
	BurstLen, BurstGap int
}

// Injector generates traffic into a network, one Tick per cycle.
type Injector struct {
	net   *noc.Network
	cfg   Config
	rng   *sim.Rand
	prob  float64 // per-tile packet probability per cycle
	phase []int   // per-tile burst phase offset
	sent  uint64
	// blk is refilled for every data packet: SendData encodes it before
	// returning and keeps nothing of it.
	blk value.Block
}

// New validates cfg and builds an injector for net.
func New(net *noc.Network, cfg Config) (*Injector, error) {
	if cfg.FlitRate <= 0 {
		return nil, fmt.Errorf("traffic: flit rate %g must be positive", cfg.FlitRate)
	}
	if cfg.DataRatio < 0 || cfg.DataRatio > 1 {
		return nil, fmt.Errorf("traffic: data ratio %g outside [0,1]", cfg.DataRatio)
	}
	if cfg.Source == nil {
		return nil, fmt.Errorf("traffic: nil workload source")
	}
	if cfg.HotspotFrac == 0 {
		cfg.HotspotFrac = 0.2
	}
	tiles := net.Topology().Tiles()
	if cfg.Pattern == Hotspot && (cfg.HotspotTile < 0 || cfg.HotspotTile >= tiles) {
		return nil, fmt.Errorf("traffic: hotspot tile %d outside [0,%d)", cfg.HotspotTile, tiles)
	}
	blockFlits := 1 + 64/net.Config().FlitBytes
	avgFlits := cfg.DataRatio*float64(blockFlits) + (1 - cfg.DataRatio)
	in := &Injector{
		net:   net,
		cfg:   cfg,
		rng:   sim.NewRand(cfg.Seed),
		prob:  cfg.FlitRate / avgFlits,
		phase: make([]int, tiles),
	}
	if cfg.Bursty {
		period := cfg.BurstLen + cfg.BurstGap
		if period <= 0 {
			return nil, fmt.Errorf("traffic: bursty injection needs positive burst periods")
		}
		for i := range in.phase {
			in.phase[i] = in.rng.Intn(period)
		}
	}
	return in, nil
}

// Sent returns the packets injected so far.
func (in *Injector) Sent() uint64 { return in.sent }

// Tick injects this cycle's packets. Call once per network Step.
func (in *Injector) Tick() {
	now := int(in.net.Now())
	tiles := in.net.Topology().Tiles()
	for tile := 0; tile < tiles; tile++ {
		p := in.prob
		if in.cfg.Bursty {
			period := in.cfg.BurstLen + in.cfg.BurstGap
			pos := (now + in.phase[tile]) % period
			if pos < in.cfg.BurstLen {
				p *= 3 // burst phase
			} else {
				p /= 3 // quiet phase
			}
		}
		if !in.rng.Bool(p) {
			continue
		}
		dst, ok := in.dest(tile, tiles)
		if !ok {
			continue
		}
		var err error
		if in.cfg.Source.NextIsDataAt(in.cfg.DataRatio) {
			_, err = in.net.SendData(tile, dst, in.cfg.Source.NextBlockInto(&in.blk))
		} else {
			_, err = in.net.SendControl(tile, dst)
		}
		if err == nil {
			in.sent++
		}
	}
}

// dest picks the destination tile under the configured pattern.
func (in *Injector) dest(src, tiles int) (int, bool) {
	switch in.cfg.Pattern {
	case Transpose:
		topo := in.net.Topology()
		r := topo.RouterOf(src)
		x, y := topo.XY(r)
		if x >= topo.Height || y >= topo.Width {
			return 0, false // non-square meshes have unmapped tiles
		}
		dr := topo.RouterAt(y, x)
		dst := topo.TileAt(dr, topo.LocalPortOf(src))
		if dst == src {
			return 0, false // diagonal tiles have no transpose partner
		}
		return dst, true
	case BitComplement:
		dst := (tiles - 1) - src
		if dst == src {
			return 0, false
		}
		return dst, true
	case Hotspot:
		if src != in.cfg.HotspotTile && in.rng.Bool(in.cfg.HotspotFrac) {
			return in.cfg.HotspotTile, true
		}
		fallthrough
	default:
		for {
			d := in.rng.Intn(tiles)
			if d != src {
				return d, true
			}
		}
	}
}

// RunResult summarizes a fixed-duration injection run.
type RunResult struct {
	Cycles    int
	Sent      uint64
	Delivered uint64
	Stats     noc.NetStats
}

// Run drives the network for the given number of cycles with injection,
// then (optionally) drains the in-flight packets.
func Run(net *noc.Network, in *Injector, cycles int, drain bool) RunResult {
	for i := 0; i < cycles; i++ {
		in.Tick()
		net.Step()
	}
	if drain {
		net.Drain(cycles * 10)
	}
	s := net.Stats()
	return RunResult{Cycles: cycles, Sent: in.Sent(), Delivered: s.PacketsDelivered, Stats: s}
}
