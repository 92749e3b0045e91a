package experiments

import (
	"approxnoc/internal/compress"
	"approxnoc/internal/stats"
	"approxnoc/internal/traffic"
	"approxnoc/internal/workload"
)

// Fig9Row is one bar of Fig. 9: the latency breakdown plus the data
// approximation quality for one (benchmark, scheme).
type Fig9Row struct {
	Benchmark string
	Scheme    compress.Scheme
	QueueLat  float64
	NetLat    float64
	DecodeLat float64
	TotalLat  float64
	Quality   float64 // data value quality, right axis of Fig. 9
}

// Grid is the one set of replays Figs. 9, 10, 11 and 15 all read (§5.1:
// every benchmark under every scheme at the Config's defaults). Each
// figure is a projection of it, so a caller that wants several of them
// runs the grid once and passes the value; nothing is cached behind it.
type Grid struct {
	// runs is benchmark-major in the paper's figure order, each
	// benchmark's schemes in compress.AllSchemes order (Baseline first).
	runs []RunMetrics
}

// RunGrid replays every benchmark under every evaluated scheme.
func RunGrid(cfg Config) (Grid, error) {
	var cells []cell
	for _, model := range workload.Benchmarks() {
		for _, scheme := range compress.AllSchemes() {
			cells = append(cells, cfg.cell(model, scheme))
		}
	}
	runs, err := replay(cfg, cells)
	return Grid{runs: runs}, err
}

// Fig9 replays every benchmark under every scheme and reports the average
// packet latency breakdown and data quality. Callers that also want
// Fig. 10, 11 or 15 use RunGrid and its views instead.
func Fig9(cfg Config) ([]Fig9Row, error) {
	g, err := RunGrid(cfg)
	if err != nil {
		return nil, err
	}
	return g.Fig9(), nil
}

// Fig9 is the latency breakdown and data quality of every run, plus the
// AVG pseudo-benchmark the figure plots.
func (g Grid) Fig9() []Fig9Row {
	rows := make([]Fig9Row, len(g.runs))
	for i, m := range g.runs {
		rows[i] = Fig9Row{
			Benchmark: m.Benchmark,
			Scheme:    m.Scheme,
			QueueLat:  m.Net.AvgQueueLatency(),
			NetLat:    m.Net.AvgNetLatency(),
			DecodeLat: m.Net.AvgDecodeLatency(),
			TotalLat:  m.Net.AvgPacketLatency(),
			Quality:   m.Codec.DataQuality(),
		}
	}
	for _, scheme := range compress.AllSchemes() {
		var q, n, d, t, ql []float64
		for _, r := range rows {
			if r.Scheme == scheme {
				q = append(q, r.QueueLat)
				n = append(n, r.NetLat)
				d = append(d, r.DecodeLat)
				t = append(t, r.TotalLat)
				ql = append(ql, r.Quality)
			}
		}
		rows = append(rows, Fig9Row{
			Benchmark: "AVG", Scheme: scheme,
			QueueLat: stats.Mean(q), NetLat: stats.Mean(n), DecodeLat: stats.Mean(d),
			TotalLat: stats.Mean(t), Quality: stats.Mean(ql),
		})
	}
	return rows
}

// Fig10Row is one bar of Fig. 10: encoded-word fraction split into exact
// and approximate matches (a) and the compression ratio (b).
type Fig10Row struct {
	Benchmark   string
	Scheme      compress.Scheme
	ExactFrac   float64
	ApproxFrac  float64
	EncodedFrac float64
	Ratio       float64
}

// Fig10 is the word-encoding breakdown and compression ratio of the four
// compressing schemes, plus the GMEAN pseudo-benchmark.
func (g Grid) Fig10() []Fig10Row {
	var rows []Fig10Row
	for _, m := range g.runs {
		if m.Scheme == compress.Baseline {
			continue
		}
		rows = append(rows, Fig10Row{
			Benchmark:   m.Benchmark,
			Scheme:      m.Scheme,
			ExactFrac:   m.Codec.EncodedWordFraction() - m.Codec.ApproxWordFraction(),
			ApproxFrac:  m.Codec.ApproxWordFraction(),
			EncodedFrac: m.Codec.EncodedWordFraction(),
			Ratio:       m.Codec.CompressionRatio(),
		})
	}
	for _, scheme := range compress.AllSchemes()[1:] {
		var ef, af, enc, ra []float64
		for _, r := range rows {
			if r.Scheme == scheme {
				ef = append(ef, r.ExactFrac)
				af = append(af, r.ApproxFrac)
				enc = append(enc, r.EncodedFrac)
				ra = append(ra, r.Ratio)
			}
		}
		rows = append(rows, Fig10Row{
			Benchmark: "GMEAN", Scheme: scheme,
			ExactFrac: stats.Mean(ef), ApproxFrac: stats.Mean(af),
			EncodedFrac: stats.Mean(enc), Ratio: stats.GeoMean(ra),
		})
	}
	return rows
}

// Fig11Row is one bar of Fig. 11: data flits injected, normalized to the
// baseline for the same benchmark.
type Fig11Row struct {
	Benchmark string
	Scheme    compress.Scheme
	NormFlits float64
}

// Fig11 is every run's injected data flits over its benchmark's Baseline
// run, which leads each benchmark's group.
func (g Grid) Fig11() []Fig11Row {
	rows := make([]Fig11Row, len(g.runs))
	base := 0.0
	for i, m := range g.runs {
		flits := float64(m.Net.DataFlitsInjected)
		if m.Scheme == compress.Baseline {
			base = flits
		}
		rows[i] = Fig11Row{Benchmark: m.Benchmark, Scheme: m.Scheme, NormFlits: 1}
		if base > 0 {
			rows[i].NormFlits = flits / base
		}
	}
	return rows
}

// Fig12Point is one sample of a Fig. 12 load-latency curve.
type Fig12Point struct {
	Benchmark string
	Pattern   traffic.Pattern
	Scheme    compress.Scheme
	Rate      float64 // offered flits/cycle/node
	Latency   float64 // average packet latency
	Saturated bool    // drained too slowly / latency blew up
}

// Fig12 sweeps injection rate for the given benchmark data traces under
// uniform-random and transpose patterns with the 25:75 data:control mix.
func Fig12(cfg Config, benchmarks []string, rates []float64) ([]Fig12Point, error) {
	if len(benchmarks) == 0 {
		benchmarks = []string{"blackscholes", "streamcluster"}
	}
	if len(rates) == 0 {
		rates = []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}
	}
	var cells []cell
	for _, bname := range benchmarks {
		model, err := workload.ByName(bname)
		if err != nil {
			return nil, err
		}
		model.DataRatio = 0.25 // the paper's synthetic mix
		for _, pattern := range []traffic.Pattern{traffic.UniformRandom, traffic.Transpose} {
			for _, scheme := range compress.AllSchemes() {
				for _, rate := range rates {
					c := cfg.cell(model, scheme)
					c.srcSeed = cfg.Seed*31337 + 11
					c.traffic = &traffic.Config{
						Pattern:   pattern,
						FlitRate:  rate,
						DataRatio: model.DataRatio,
						Seed:      cfg.Seed*101 + uint64(scheme)*13 + uint64(pattern),
					}
					cells = append(cells, c)
				}
			}
		}
	}
	// Load sweeps are steady-state measurements: saturated points are
	// flagged, not drained.
	cfg.NoDrain = true
	runs, err := replay(cfg, cells)
	if err != nil {
		return nil, err
	}
	pts := make([]Fig12Point, len(runs))
	for i, m := range runs {
		lat := m.Net.AvgPacketLatency()
		pts[i] = Fig12Point{
			Benchmark: m.Benchmark, Pattern: cells[i].traffic.Pattern, Scheme: m.Scheme,
			Rate: cells[i].traffic.FlitRate, Latency: lat,
			// A network past saturation shows unbounded queueing; flag the
			// point so curve rendering can cut it off like the paper's plots do.
			Saturated: lat > 10*float64(cfg.NoC.VCs*cfg.NoC.BufDepth) || lat == 0,
		}
	}
	return pts, nil
}

// Fig15Row is one bar of Fig. 15: dynamic power normalized to baseline.
type Fig15Row struct {
	Benchmark string
	Scheme    compress.Scheme
	NormPower float64
	PowerMW   float64
}

// Fig15 is every run's dynamic power under the 45 nm energy model, over
// its benchmark's Baseline run.
func (g Grid) Fig15() []Fig15Row {
	rows := make([]Fig15Row, len(g.runs))
	base := 0.0
	for i, m := range g.runs {
		if m.Scheme == compress.Baseline {
			base = m.DynPowerMW
		}
		rows[i] = Fig15Row{Benchmark: m.Benchmark, Scheme: m.Scheme, NormPower: 1, PowerMW: m.DynPowerMW}
		if base > 0 {
			rows[i].NormPower = m.DynPowerMW / base
		}
	}
	return rows
}
