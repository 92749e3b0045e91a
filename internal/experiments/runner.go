// Package experiments contains one driver per table and figure of the
// paper's evaluation (§5), plus the ablations DESIGN.md calls out. Each
// driver returns typed rows; the cmd/approxnoc-bench tool renders them.
package experiments

import (
	"fmt"

	"approxnoc/internal/compress"
	"approxnoc/internal/noc"
	"approxnoc/internal/power"
	"approxnoc/internal/topology"
	"approxnoc/internal/traffic"
	"approxnoc/internal/workload"
)

// Config controls the scale of every experiment.
type Config struct {
	// Width, Height, Concentration describe the mesh (Table 1: 4x4
	// concentrated mesh; with 2 tiles per router it hosts 32 nodes).
	Width, Height, Concentration int
	// Cycles is the injection window per run. The paper simulates 100M
	// cycles; the default here is sized for interactive runs and can be
	// raised from the CLI.
	Cycles int
	// ErrorThreshold is the default VAXX threshold in percent (Table 1: 10).
	ErrorThreshold int
	// ApproxRatio is the fraction of approximable data packets (Table 1: 0.75).
	ApproxRatio float64
	// Seed drives all randomness.
	Seed uint64
	// Jobs is the worker-pool width for fanning independent runs across
	// CPUs (0 = GOMAXPROCS). Results are independent of the value: every
	// run owns its Network and derives its seeds from this Config alone,
	// and rows are collected in job order.
	Jobs int
	// NoDrain skips the post-injection drain: latency is then measured
	// over delivered packets only, the steady-state methodology the
	// Fig. 12 load sweeps use (saturated points are flagged, not drained).
	NoDrain bool
	// NoC carries the router parameters.
	NoC noc.Config
}

// Default returns the Table 1 experiment configuration at interactive
// scale.
func Default() Config {
	return Config{
		Width: 4, Height: 4, Concentration: 2,
		Cycles:         30000,
		ErrorThreshold: 10,
		ApproxRatio:    0.75,
		Seed:           1,
		NoC:            noc.DefaultConfig(),
	}
}

// RunMetrics bundles the outputs of one trace replay.
type RunMetrics struct {
	Benchmark string
	Scheme    compress.Scheme
	Net       noc.NetStats
	Codec     compress.OpStats
	Power     noc.PowerEvents
	// DynPowerMW is dynamic power under the 45 nm model at 2 GHz.
	DynPowerMW float64
}

// validate rejects a Config no replay can run; replay calls it, so every
// driver checks its Config once, whatever scheme its cells carry.
func (cfg Config) validate() error {
	switch {
	case cfg.Cycles <= 0:
		return fmt.Errorf("experiments: cycles %d must be positive", cfg.Cycles)
	case !(cfg.ApproxRatio >= 0 && cfg.ApproxRatio <= 1):
		return fmt.Errorf("experiments: approximable ratio %g out of range [0,1]", cfg.ApproxRatio)
	case cfg.ErrorThreshold < 0 || cfg.ErrorThreshold > 100:
		return fmt.Errorf("experiments: threshold %d%% out of range [0,100]", cfg.ErrorThreshold)
	}
	return nil
}

// cell is one replay: everything that tells it apart from the other
// replays a driver makes under the same Config. A driver cuts cells at
// the Config's defaults, changes the field it studies, hands the list to
// replay and projects the metrics into its rows.
type cell struct {
	model     workload.Model
	scheme    compress.Scheme
	threshold int     // VAXX error threshold, percent
	ratio     float64 // approximable share of data packets
	noc       noc.Config
	dict      compress.DictConfig
	// wrap, when set, builds the per-node codec factory the network uses
	// from the scheme's own (adaptive controller, windowed budget).
	wrap func(inner func(node int) compress.Codec) func(node int) compress.Codec
	// traffic, when set, replaces the bursty benchmark replay with a
	// fixed pattern and rate (Fig. 12); srcSeed seeds its value source.
	traffic *traffic.Config
	srcSeed uint64
}

// cell cuts the replay of one benchmark under one scheme at cfg's defaults.
func (cfg Config) cell(model workload.Model, scheme compress.Scheme) cell {
	return cell{
		model: model, scheme: scheme,
		threshold: cfg.ErrorThreshold, ratio: cfg.ApproxRatio,
		noc:  cfg.NoC,
		dict: compress.DefaultDictConfig(cfg.Width * cfg.Height * cfg.Concentration),
	}
}

// cells crosses the named benchmarks (defaults when none are named) with
// schemes, benchmark-major: the order every table prints in.
func (cfg Config) cells(names, defaults []string, schemes []compress.Scheme) ([]cell, error) {
	if len(names) == 0 {
		names = defaults
	}
	cells := make([]cell, 0, len(names)*len(schemes))
	for _, name := range names {
		model, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, scheme := range schemes {
			cells = append(cells, cfg.cell(model, scheme))
		}
	}
	return cells, nil
}

// vary expands every cell into n variants, set making the k-th; variant
// k of cell i replays as run i*n+k.
func vary(cells []cell, n int, set func(c *cell, k int)) []cell {
	out := make([]cell, 0, len(cells)*n)
	for _, c := range cells {
		for k := 0; k < n; k++ {
			v := c
			set(&v, k)
			out = append(out, v)
		}
	}
	return out
}

// replay runs the cells on cfg's worker pool and returns their metrics
// in cell order. Every cell builds its own network and derives its seeds
// from cfg and its own fields, so the schedule cannot move a result.
func replay(cfg Config, cells []cell) ([]RunMetrics, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return mapJobs(cfg.workers(), len(cells), func(a *noc.Arena, i int) (RunMetrics, error) { return cells[i].run(cfg, a) })
}

// run is the one path from a cell to the simulator: topology, codec
// factory, network, injector, cfg.Cycles of traffic, metrics. The network
// is built on arena's storage and codecs and released into it.
func (c cell) run(cfg Config, arena *noc.Arena) (RunMetrics, error) {
	topo, err := topology.NewCMesh(cfg.Width, cfg.Height, cfg.Concentration)
	if err != nil {
		return RunMetrics{}, err
	}
	factory, err := arena.Factory(c.scheme, c.dict, c.threshold)
	if err != nil {
		return RunMetrics{}, err
	}
	if c.wrap != nil {
		factory = c.wrap(factory)
	}
	net, err := arena.New(topo, c.noc, factory)
	if err != nil {
		return RunMetrics{}, err
	}
	tcfg, srcSeed := c.benchmarkTraffic(cfg), cfg.Seed*1000003+7
	if c.traffic != nil {
		tcfg, srcSeed = *c.traffic, c.srcSeed
	}
	tcfg.Source = c.model.NewSource(srcSeed, c.ratio)
	inj, err := traffic.New(net, tcfg)
	if err != nil {
		return RunMetrics{}, err
	}
	res := traffic.Run(net, inj, cfg.Cycles, !cfg.NoDrain)
	m := RunMetrics{
		Benchmark:  c.model.Name,
		Scheme:     c.scheme,
		Net:        res.Stats,
		Codec:      net.CodecStats(),
		Power:      net.Power(),
		DynPowerMW: power.Default45nm().DynamicPowerMW(net.Power(), net.CodecStats(), res.Stats.Cycles, 2),
	}
	net.Release() // the next cell this worker runs is built on its body
	return m, nil
}

// benchmarkTraffic is the Fig. 9-style bursty replay of the cell's model.
func (c cell) benchmarkTraffic(cfg Config) traffic.Config {
	// Model.InjectionRate is a per-tile packet probability; the injector
	// takes offered flits/cycle/tile, so scale by the mean uncompressed
	// packet size.
	blockFlits := float64(1 + 64/c.noc.FlitBytes)
	avgFlits := c.model.DataRatio*blockFlits + (1 - c.model.DataRatio)
	return traffic.Config{
		Pattern:   traffic.UniformRandom,
		FlitRate:  c.model.InjectionRate * avgFlits,
		DataRatio: c.model.DataRatio,
		Seed:      cfg.Seed*7919 + uint64(c.scheme),
		Bursty:    true,
		BurstLen:  c.model.BurstLen,
		BurstGap:  c.model.BurstGap,
	}
}

// Table1 describes the simulated system configuration.
func Table1(cfg Config) string {
	t := fmt.Sprintf("%dx%d 2D concentrated-mesh (%d tiles)", cfg.Width, cfg.Height,
		cfg.Width*cfg.Height*cfg.Concentration)
	return fmt.Sprintf(`APPROX-NoC Simulation Configuration (Table 1)
  System      32 out-of-order cores at 2GHz (modelled by workload traces)
              32KB L1I$ / 64KB L1D$ 2-way, 2MB L2$, MOESI-style substrate
  NoC         %s
              2GHz three-stage routers, %d virtual channels (%d-flit buffers)
              %d-bit flits, wormhole switching, XY routing
  Error threshold     5%%, %d%% (default), 20%%
  Approximable ratio  25%%, 50%%, %d%% (default)
  Dictionary          %d-entry PMTs
  Codec latency       %d-cycle compression, %d-cycle decompression`,
		t, cfg.NoC.VCs, cfg.NoC.BufDepth, cfg.NoC.FlitBytes*8,
		cfg.ErrorThreshold, int(cfg.ApproxRatio*100), 8,
		cfg.NoC.CompressLatency, cfg.NoC.DecompressLatency)
}
