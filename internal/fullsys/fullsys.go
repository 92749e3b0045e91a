// Package fullsys couples the cache substrate to the cycle-accurate NoC:
// every remote L1 miss becomes a real request/reply round trip through
// the routers, so full-system performance impact is *measured* rather
// than modelled — the closest this reproduction gets to the paper's gem5
// runs (§5.4). Kernels execute sequentially, so one miss is in flight at
// a time; the measured stall cycles therefore bound (rather than match)
// a real out-of-order machine's overlap, which DESIGN.md documents.
package fullsys

import (
	"fmt"
	"sync/atomic"

	"approxnoc/internal/cachesim"
	"approxnoc/internal/compress"
	"approxnoc/internal/noc"
	"approxnoc/internal/obs"
	"approxnoc/internal/topology"
	"approxnoc/internal/value"
)

// Config assembles a full system.
type Config struct {
	// Scheme and ThresholdPct select the NI codecs.
	Scheme       compress.Scheme
	ThresholdPct int
	// Width, Height, Concentration shape the mesh; tiles must equal the
	// cache system's core count.
	Width, Height, Concentration int
	// NoC carries router parameters (zero value: Table 1 defaults).
	NoC noc.Config
	// Cache carries cache parameters; Cores is forced to the tile count.
	Cache cachesim.Config
}

// DefaultConfig returns a 4x4 mesh with one core per router (16 cores,
// matching the §5.4 cache configuration).
func DefaultConfig(scheme compress.Scheme, thresholdPct int) Config {
	return Config{
		Scheme:       scheme,
		ThresholdPct: thresholdPct,
		Width:        4, Height: 4, Concentration: 1,
		NoC:   noc.DefaultConfig(),
		Cache: cachesim.DefaultConfig(),
	}
}

// System is the coupled cache + NoC machine.
type System struct {
	net   *noc.Network
	cache *cachesim.System

	delivered map[uint64]*value.Block
	deliverOK map[uint64]bool

	// Atomics: written only by the simulation goroutine, but read live
	// by obs scrape collectors from HTTP handler goroutines.
	stallCycles atomic.Uint64
	roundTrips  atomic.Uint64
}

// New builds the system.
func New(cfg Config) (*System, error) {
	if cfg.NoC.VCs == 0 {
		cfg.NoC = noc.DefaultConfig()
	}
	topo, err := topology.NewCMesh(cfg.Width, cfg.Height, cfg.Concentration)
	if err != nil {
		return nil, err
	}
	factory, err := compress.FactoryFor(cfg.Scheme, topo.Tiles(), cfg.ThresholdPct)
	if err != nil {
		return nil, err
	}
	net, err := noc.New(topo, cfg.NoC, factory)
	if err != nil {
		return nil, err
	}
	ccfg := cfg.Cache
	if ccfg.Cores == 0 {
		ccfg = cachesim.DefaultConfig()
	}
	ccfg.Cores = topo.Tiles()
	s := &System{
		net:       net,
		delivered: make(map[uint64]*value.Block),
		deliverOK: make(map[uint64]bool),
	}
	if s.cache, err = cachesim.New(ccfg, s.transfer); err != nil {
		return nil, err
	}
	net.SetDeliveryHandler(func(p *noc.Packet, blk *value.Block) {
		s.deliverOK[p.ID] = true
		if blk != nil {
			s.delivered[p.ID] = blk.Clone() // the network reuses blk
		}
	})
	return s, nil
}

// Cache exposes the cache system for kernels.
func (s *System) Cache() *cachesim.System { return s.cache }

// Network exposes the underlying NoC.
func (s *System) Network() *noc.Network { return s.net }

// StallCycles returns the total memory stall cycles accumulated by
// network round trips.
func (s *System) StallCycles() uint64 { return s.stallCycles.Load() }

// RoundTrips returns the number of remote misses served.
func (s *System) RoundTrips() uint64 { return s.roundTrips.Load() }

// EnableObs attaches the observability layer to the coupled machine: it
// wires reg and tracer into the underlying network (see
// noc.Network.EnableObs) and additionally exports the full-system
// counters. Must be called before kernels run.
func (s *System) EnableObs(reg *obs.Registry, tracer *obs.Tracer, every int) {
	s.net.EnableObs(reg, tracer, every)
	if reg == nil {
		return
	}
	reg.Collector("fullsys_stall_cycles_total", "memory stall cycles from network round trips",
		obs.TypeCounter, nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(s.StallCycles())}}
		})
	reg.Collector("fullsys_round_trips_total", "remote misses served through the NoC",
		obs.TypeCounter, nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(s.RoundTrips())}}
		})
}

// transfer serves one remote miss through the network: a single-flit
// read request to the home tile, then the (possibly compressed and
// approximated) data reply back. The network recycles a packet once it is
// delivered, so only the IDs, copied at send time, outlive the sends.
func (s *System) transfer(home, core int, blk *value.Block) *value.Block {
	start := s.net.Now()
	req, err := s.net.SendControl(core, home)
	if err != nil {
		panic(fmt.Sprintf("fullsys: request send failed: %v", err))
	}
	reqID := req.ID
	s.waitFor(reqID)
	rep, err := s.net.SendData(home, core, blk)
	if err != nil {
		panic(fmt.Sprintf("fullsys: reply send failed: %v", err))
	}
	repID := rep.ID
	s.waitFor(repID)
	out := s.delivered[repID]
	delete(s.delivered, repID)
	delete(s.deliverOK, reqID)
	delete(s.deliverOK, repID)
	s.stallCycles.Add(uint64(s.net.Now() - start))
	s.roundTrips.Add(1)
	if out == nil {
		panic("fullsys: data reply delivered without a block")
	}
	return out
}

// waitFor steps the network until packet id is delivered.
func (s *System) waitFor(id uint64) {
	const maxSteps = 1 << 20
	for i := 0; i < maxSteps; i++ {
		if s.deliverOK[id] {
			return
		}
		s.net.Step()
	}
	panic("fullsys: packet never delivered — network wedged")
}

// MeasureKernel builds a fresh System for cfg, runs the kernel against
// its cache, and returns the kernel's outputs plus the measured runtime.
// Every call owns its whole machine (network, caches, codecs), so
// independent measurements can run concurrently — the experiment
// harness fans Fig. 16 kernel x threshold cells through its worker pool
// with one MeasureKernel call per cell.
func MeasureKernel(cfg Config, kernel func(*cachesim.System) ([]float64, error)) (out []float64, runtime float64, err error) {
	sys, err := New(cfg)
	if err != nil {
		return nil, 0, err
	}
	out, err = kernel(sys.Cache())
	if err != nil {
		return nil, 0, err
	}
	return out, sys.Runtime(), nil
}

// Runtime returns the measured runtime proxy in cycles: one cycle per
// cache access plus the measured network stall cycles.
func (s *System) Runtime() float64 {
	cs := s.cache.Stats()
	return float64(cs.Loads+cs.Stores) + float64(s.stallCycles.Load())
}

// CodecStats aggregates the NI codec statistics.
func (s *System) CodecStats() compress.OpStats { return s.net.CodecStats() }
