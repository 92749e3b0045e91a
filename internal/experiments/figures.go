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

// traceJob is one (benchmark, scheme) cell of a figure's replay grid.
type traceJob struct {
	model  workload.Model
	scheme compress.Scheme
}

// traceGrid flattens the benchmark x scheme nesting every bar figure
// shares, preserving the serial iteration order.
func traceGrid(models []workload.Model, schemes []compress.Scheme) []traceJob {
	jobs := make([]traceJob, 0, len(models)*len(schemes))
	for _, m := range models {
		for _, s := range schemes {
			jobs = append(jobs, traceJob{model: m, scheme: s})
		}
	}
	return jobs
}

// Fig9 replays every benchmark under every scheme and reports the average
// packet latency breakdown and data quality.
func Fig9(cfg Config) ([]Fig9Row, error) {
	jobs := traceGrid(workload.Benchmarks(), schemesUnderTest())
	rows, err := mapJobs(cfg.Runner(), len(jobs), func(i int) (Fig9Row, error) {
		j := jobs[i]
		m, err := runTrace(cfg, j.model, j.scheme, cfg.ErrorThreshold, cfg.ApproxRatio, nil)
		if err != nil {
			return Fig9Row{}, err
		}
		return Fig9Row{
			Benchmark: j.model.Name,
			Scheme:    j.scheme,
			QueueLat:  m.Net.AvgQueueLatency(),
			NetLat:    m.Net.AvgNetLatency(),
			DecodeLat: m.Net.AvgDecodeLatency(),
			TotalLat:  m.Net.AvgPacketLatency(),
			Quality:   m.Codec.DataQuality(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	// Append the AVG pseudo-benchmark the figure plots.
	for _, scheme := range schemesUnderTest() {
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
	return rows, nil
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

// Fig10 measures word-encoding breakdown and compression ratio for the
// four compressing schemes.
func Fig10(cfg Config) ([]Fig10Row, error) {
	schemes := []compress.Scheme{compress.DIComp, compress.DIVaxx, compress.FPComp, compress.FPVaxx}
	jobs := traceGrid(workload.Benchmarks(), schemes)
	rows, err := mapJobs(cfg.Runner(), len(jobs), func(i int) (Fig10Row, error) {
		j := jobs[i]
		m, err := runTrace(cfg, j.model, j.scheme, cfg.ErrorThreshold, cfg.ApproxRatio, nil)
		if err != nil {
			return Fig10Row{}, err
		}
		return Fig10Row{
			Benchmark:   j.model.Name,
			Scheme:      j.scheme,
			ExactFrac:   m.Codec.EncodedWordFraction() - m.Codec.ApproxWordFraction(),
			ApproxFrac:  m.Codec.ApproxWordFraction(),
			EncodedFrac: m.Codec.EncodedWordFraction(),
			Ratio:       m.Codec.CompressionRatio(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	// GMEAN pseudo-benchmark.
	for _, scheme := range schemes {
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
	return rows, nil
}

// Fig11Row is one bar of Fig. 11: data flits injected, normalized to the
// baseline for the same benchmark.
type Fig11Row struct {
	Benchmark string
	Scheme    compress.Scheme
	NormFlits float64
}

// Fig11 measures the reduction in injected data flits. The replays fan
// out in parallel; baseline normalization runs serially over the ordered
// results, exactly as the nested serial loops did.
func Fig11(cfg Config) ([]Fig11Row, error) {
	models := workload.Benchmarks()
	schemes := schemesUnderTest()
	jobs := traceGrid(models, schemes)
	ms, err := mapJobs(cfg.Runner(), len(jobs), func(i int) (RunMetrics, error) {
		j := jobs[i]
		return runTrace(cfg, j.model, j.scheme, cfg.ErrorThreshold, cfg.ApproxRatio, nil)
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig11Row
	for i, j := range jobs {
		// NormFlits temporarily holds the raw count; normalized below.
		rows = append(rows, Fig11Row{
			Benchmark: j.model.Name, Scheme: j.scheme,
			NormFlits: float64(ms[i].Net.DataFlitsInjected),
		})
	}
	for b := 0; b < len(models); b++ {
		base := 0.0
		for s := 0; s < len(schemes); s++ {
			r := &rows[b*len(schemes)+s]
			if schemes[s] == compress.Baseline {
				base = r.NormFlits
			}
			if base > 0 {
				r.NormFlits = r.NormFlits / base
			} else {
				r.NormFlits = 1.0
			}
		}
	}
	return rows, nil
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
	type sweepJob struct {
		model   workload.Model
		pattern traffic.Pattern
		scheme  compress.Scheme
		rate    float64
	}
	var jobs []sweepJob
	for _, bname := range benchmarks {
		model, err := workload.ByName(bname)
		if err != nil {
			return nil, err
		}
		for _, pattern := range []traffic.Pattern{traffic.UniformRandom, traffic.Transpose} {
			for _, scheme := range schemesUnderTest() {
				for _, rate := range rates {
					jobs = append(jobs, sweepJob{model, pattern, scheme, rate})
				}
			}
		}
	}
	return mapJobs(cfg.Runner(), len(jobs), func(i int) (Fig12Point, error) {
		j := jobs[i]
		return fig12Point(cfg, j.model, j.pattern, j.scheme, j.rate)
	})
}

func fig12Point(cfg Config, model workload.Model, pattern traffic.Pattern, scheme compress.Scheme, rate float64) (Fig12Point, error) {
	m, err := runSynthetic(cfg, model, pattern, scheme, rate)
	if err != nil {
		return Fig12Point{}, err
	}
	lat := m.Net.AvgPacketLatency()
	// A network past saturation shows unbounded queueing; flag the point
	// so curve rendering can cut it off like the paper's plots do.
	saturated := lat > 10*float64(cfg.NoC.VCs*cfg.NoC.BufDepth) || lat == 0
	return Fig12Point{
		Benchmark: model.Name, Pattern: pattern, Scheme: scheme,
		Rate: rate, Latency: lat, Saturated: saturated,
	}, nil
}

// runSynthetic is the Fig. 12 runner: fixed pattern and rate, 25:75 data
// mix, benchmark value trace, no burstiness.
func runSynthetic(cfg Config, model workload.Model, pattern traffic.Pattern, scheme compress.Scheme, rate float64) (RunMetrics, error) {
	cfg2 := cfg
	cfg2.NoDrain = true
	sweep := model
	sweep.DataRatio = 0.25 // the paper's synthetic mix
	src := sweep.NewSource(cfg.Seed*31337+11, cfg.ApproxRatio)
	return runTraceWith(cfg2, sweep, scheme, cfg.ErrorThreshold, src, traffic.Config{
		Pattern:   pattern,
		FlitRate:  rate,
		DataRatio: sweep.DataRatio,
		Source:    src,
		Seed:      cfg.Seed*101 + uint64(scheme)*13 + uint64(pattern),
	})
}

// Fig15Row is one bar of Fig. 15: dynamic power normalized to baseline.
type Fig15Row struct {
	Benchmark string
	Scheme    compress.Scheme
	NormPower float64
	PowerMW   float64
}

// Fig15 measures dynamic power under the 45 nm energy model. Runs fan
// out in parallel; the baseline normalization pass is serial over the
// ordered results.
func Fig15(cfg Config) ([]Fig15Row, error) {
	models := workload.Benchmarks()
	schemes := schemesUnderTest()
	jobs := traceGrid(models, schemes)
	ms, err := mapJobs(cfg.Runner(), len(jobs), func(i int) (RunMetrics, error) {
		j := jobs[i]
		return runTrace(cfg, j.model, j.scheme, cfg.ErrorThreshold, cfg.ApproxRatio, nil)
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig15Row
	for b := 0; b < len(models); b++ {
		base := 0.0
		for s := 0; s < len(schemes); s++ {
			m := ms[b*len(schemes)+s]
			if schemes[s] == compress.Baseline {
				base = m.DynPowerMW
			}
			norm := 1.0
			if base > 0 {
				norm = m.DynPowerMW / base
			}
			rows = append(rows, Fig15Row{
				Benchmark: models[b].Name, Scheme: schemes[s],
				NormPower: norm, PowerMW: m.DynPowerMW,
			})
		}
	}
	return rows, nil
}
