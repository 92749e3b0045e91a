package experiments

import (
	"approxnoc/internal/compress"
	"approxnoc/internal/workload"
)

// Fig13Row is one bar group of Fig. 13: packet latency of a VAXX family at
// each error threshold, with the exact-compression bar as reference.
type Fig13Row struct {
	Benchmark    string
	Family       string // "DI-based" or "FP-based"
	ExactLat     float64
	ThresholdLat map[int]float64
	// ThresholdQuality records data value quality per threshold — the
	// §5.3.1 observation that FP-VAXX trades more error for its matches
	// as the threshold grows.
	ThresholdQuality map[int]float64
}

// families are the two tightly-coupled scheme pairs of Figs. 13/14.
var families = []struct {
	name        string
	exact, vaxx compress.Scheme
}{
	{"DI-based", compress.DIComp, compress.DIVaxx},
	{"FP-based", compress.FPComp, compress.FPVaxx},
}

// familyRuns is one bar group of Figs. 13/14: a benchmark under one
// family's exact scheme and under its VAXX scheme at every sweep point.
type familyRuns struct {
	benchmark, family string
	exact             RunMetrics
	points            []RunMetrics
}

// familySweep replays every benchmark under both families: the exact
// scheme once and the VAXX scheme n times, set making the k-th cell.
func familySweep(cfg Config, n int, set func(c *cell, k int)) ([]familyRuns, error) {
	var groups []familyRuns
	var cells []cell
	for _, model := range workload.Benchmarks() {
		for _, fam := range families {
			groups = append(groups, familyRuns{benchmark: model.Name, family: fam.name})
			cells = append(cells, cfg.cell(model, fam.exact))
			cells = append(cells, vary([]cell{cfg.cell(model, fam.vaxx)}, n, set)...)
		}
	}
	runs, err := replay(cfg, cells)
	if err != nil {
		return nil, err
	}
	for i := range groups {
		group := runs[i*(1+n) : (i+1)*(1+n)]
		groups[i].exact, groups[i].points = group[0], group[1:]
	}
	return groups, nil
}

// Fig13 sweeps the error threshold (5/10/20%) for both families.
func Fig13(cfg Config, thresholds []int) ([]Fig13Row, error) {
	if len(thresholds) == 0 {
		thresholds = []int{5, 10, 20}
	}
	groups, err := familySweep(cfg, len(thresholds), func(c *cell, k int) { c.threshold = thresholds[k] })
	if err != nil {
		return nil, err
	}
	rows := make([]Fig13Row, len(groups))
	for i, g := range groups {
		rows[i] = Fig13Row{Benchmark: g.benchmark, Family: g.family, ExactLat: g.exact.Net.AvgPacketLatency(),
			ThresholdLat: map[int]float64{}, ThresholdQuality: map[int]float64{}}
		for k, th := range thresholds {
			rows[i].ThresholdLat[th] = g.points[k].Net.AvgPacketLatency()
			rows[i].ThresholdQuality[th] = g.points[k].Codec.DataQuality()
		}
	}
	return rows, nil
}

// Fig14Row is one bar group of Fig. 14: packet latency at each
// approximable-packet ratio.
type Fig14Row struct {
	Benchmark string
	Family    string
	ExactLat  float64
	RatioLat  map[int]float64 // key: percent approximable
}

// Fig14 sweeps the approximable data packet ratio (25/50/75%).
func Fig14(cfg Config, ratios []int) ([]Fig14Row, error) {
	if len(ratios) == 0 {
		ratios = []int{25, 50, 75}
	}
	groups, err := familySweep(cfg, len(ratios), func(c *cell, k int) { c.ratio = float64(ratios[k]) / 100 })
	if err != nil {
		return nil, err
	}
	rows := make([]Fig14Row, len(groups))
	for i, g := range groups {
		rows[i] = Fig14Row{Benchmark: g.benchmark, Family: g.family, ExactLat: g.exact.Net.AvgPacketLatency(),
			RatioLat: map[int]float64{}}
		for k, ratio := range ratios {
			rows[i].RatioLat[ratio] = g.points[k].Net.AvgPacketLatency()
		}
	}
	return rows, nil
}

// AblationOverlapRow compares the §4.3 latency-hiding optimizations.
type AblationOverlapRow struct {
	Benchmark  string
	Scheme     compress.Scheme
	LatencyOn  float64
	LatencyOff float64
}

// AblationOverlap measures packet latency with the VC-arb overlap and
// queue-amortization optimizations enabled vs disabled.
func AblationOverlap(cfg Config, benchmarks []string) ([]AblationOverlapRow, error) {
	base, err := cfg.cells(benchmarks, []string{"blackscholes", "ssca2"}, []compress.Scheme{compress.DIVaxx, compress.FPVaxx})
	if err != nil {
		return nil, err
	}
	runs, err := replay(cfg, vary(base, 2, func(c *cell, k int) {
		c.noc.OverlapVCArb, c.noc.OverlapQueueing = k == 0, k == 0
	}))
	if err != nil {
		return nil, err
	}
	rows := make([]AblationOverlapRow, len(base))
	for i, c := range base {
		rows[i] = AblationOverlapRow{
			Benchmark: c.model.Name, Scheme: c.scheme,
			LatencyOn:  runs[2*i].Net.AvgPacketLatency(),
			LatencyOff: runs[2*i+1].Net.AvgPacketLatency(),
		}
	}
	return rows, nil
}

// AblationWindowRow compares the shipped per-word error budget against
// the §7 future-work windowed cumulative budget for FP-VAXX.
type AblationWindowRow struct {
	Benchmark  string
	Mode       string // "per-word" or "windowed"
	ApproxFrac float64
	Ratio      float64
	Quality    float64
	Latency    float64
}

// AblationWindow measures how the window-based cumulative error budget
// changes approximation rate, compression ratio, data quality and packet
// latency relative to the per-word policy at the same nominal threshold.
func AblationWindow(cfg Config, benchmarks []string) ([]AblationWindowRow, error) {
	// Build the windowed codec once for its error; the per-node factory
	// then cannot fail.
	if _, err := compress.NewFPVaxxWindowed(cfg.ErrorThreshold, 16, 4); err != nil {
		return nil, err
	}
	windowed := func(func(int) compress.Codec) func(int) compress.Codec {
		return func(int) compress.Codec {
			c, _ := compress.NewFPVaxxWindowed(cfg.ErrorThreshold, 16, 4)
			return c
		}
	}
	base, err := cfg.cells(benchmarks, []string{"blackscholes", "x264", "ssca2"}, []compress.Scheme{compress.FPVaxx})
	if err != nil {
		return nil, err
	}
	modes := []string{"per-word", "windowed"}
	runs, err := replay(cfg, vary(base, len(modes), func(c *cell, k int) {
		if modes[k] == "windowed" {
			c.wrap = windowed
		}
	}))
	if err != nil {
		return nil, err
	}
	rows := make([]AblationWindowRow, len(runs))
	for i, m := range runs {
		rows[i] = AblationWindowRow{
			Benchmark:  m.Benchmark,
			Mode:       modes[i%len(modes)],
			ApproxFrac: m.Codec.ApproxWordFraction(),
			Ratio:      m.Codec.CompressionRatio(),
			Quality:    m.Codec.DataQuality(),
			Latency:    m.Net.AvgPacketLatency(),
		}
	}
	return rows, nil
}

// AblationRouterRow reports latency across router buffer provisioning.
type AblationRouterRow struct {
	Benchmark string
	Scheme    compress.Scheme
	VCs       int
	BufDepth  int
	Latency   float64
}

// AblationRouter sweeps virtual channel count and per-VC buffer depth
// around the Table 1 point (4 VCs, 4-flit buffers), quantifying how much
// of the compression win the router provisioning could also buy.
func AblationRouter(cfg Config, benchmarks []string) ([]AblationRouterRow, error) {
	points := []struct{ vcs, depth int }{
		{2, 2}, {2, 4}, {4, 2}, {4, 4}, {4, 8}, {8, 4},
	}
	base, err := cfg.cells(benchmarks, []string{"ssca2"}, []compress.Scheme{compress.Baseline, compress.FPVaxx})
	if err != nil {
		return nil, err
	}
	cells := vary(base, len(points), func(c *cell, k int) {
		c.noc.VCs, c.noc.BufDepth = points[k].vcs, points[k].depth
	})
	runs, err := replay(cfg, cells)
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRouterRow, len(runs))
	for i, m := range runs {
		rows[i] = AblationRouterRow{
			Benchmark: m.Benchmark, Scheme: m.Scheme,
			VCs: cells[i].noc.VCs, BufDepth: cells[i].noc.BufDepth,
			Latency: m.Net.AvgPacketLatency(),
		}
	}
	return rows, nil
}

// AblationMatchUnitsRow reports latency as the number of parallel
// matching units varies (§4.3 provisions 8).
type AblationMatchUnitsRow struct {
	Benchmark string
	Scheme    compress.Scheme
	Units     int
	Latency   float64
}

// AblationMatchUnits sweeps the parallel matching unit count, with the
// queueing overlap disabled so the compression latency is visible.
func AblationMatchUnits(cfg Config, benchmarks []string, units []int) ([]AblationMatchUnitsRow, error) {
	if len(units) == 0 {
		units = []int{1, 2, 4, 8, 16}
	}
	base, err := cfg.cells(benchmarks, []string{"ssca2"}, []compress.Scheme{compress.DIVaxx, compress.FPVaxx})
	if err != nil {
		return nil, err
	}
	cells := vary(base, len(units), func(c *cell, k int) {
		c.noc.MatchUnits = units[k]
		c.noc.OverlapQueueing = false
	})
	runs, err := replay(cfg, cells)
	if err != nil {
		return nil, err
	}
	rows := make([]AblationMatchUnitsRow, len(runs))
	for i, m := range runs {
		rows[i] = AblationMatchUnitsRow{
			Benchmark: m.Benchmark, Scheme: m.Scheme, Units: cells[i].noc.MatchUnits,
			Latency: m.Net.AvgPacketLatency(),
		}
	}
	return rows, nil
}

// ExtensionBDIRow compares the paper's schemes against the base-delta
// comparator (related work [36]) and its VAXX integration on one
// benchmark — evidence for the §3.2 claim that VAXX is plug-and-play
// over any underlying compression mechanism.
type ExtensionBDIRow struct {
	Benchmark string
	Scheme    compress.Scheme
	Latency   float64
	Ratio     float64
	Quality   float64
}

// ExtensionBDI runs all seven schemes (five evaluated + two base-delta)
// on the given benchmarks.
func ExtensionBDI(cfg Config, benchmarks []string) ([]ExtensionBDIRow, error) {
	cells, err := cfg.cells(benchmarks, []string{"canneal", "ssca2"}, compress.ExtendedSchemes())
	if err != nil {
		return nil, err
	}
	runs, err := replay(cfg, cells)
	if err != nil {
		return nil, err
	}
	rows := make([]ExtensionBDIRow, len(runs))
	for i, m := range runs {
		rows[i] = ExtensionBDIRow{
			Benchmark: m.Benchmark, Scheme: m.Scheme,
			Latency: m.Net.AvgPacketLatency(),
			Ratio:   m.Codec.CompressionRatio(),
			Quality: m.Codec.DataQuality(),
		}
	}
	return rows, nil
}

// AblationAdaptiveRow compares a scheme with and without the Jin et al.
// adaptive on/off controller.
type AblationAdaptiveRow struct {
	Benchmark       string
	Scheme          compress.Scheme
	LatencyPlain    float64
	LatencyAdaptive float64
}

// AblationAdaptive measures the effect of adaptively bypassing the codec
// when compression is not paying off. The gain shows on workloads with
// poorly compressible phases.
func AblationAdaptive(cfg Config, benchmarks []string) ([]AblationAdaptiveRow, error) {
	base, err := cfg.cells(benchmarks, []string{"streamcluster", "ssca2"}, []compress.Scheme{compress.DIVaxx, compress.FPVaxx})
	if err != nil {
		return nil, err
	}
	runs, err := replay(cfg, vary(base, 2, func(c *cell, k int) {
		if k == 1 {
			c.wrap = compress.AdaptiveFactory
		}
	}))
	if err != nil {
		return nil, err
	}
	rows := make([]AblationAdaptiveRow, len(base))
	for i, c := range base {
		rows[i] = AblationAdaptiveRow{
			Benchmark:       c.model.Name,
			Scheme:          c.scheme,
			LatencyPlain:    runs[2*i].Net.AvgPacketLatency(),
			LatencyAdaptive: runs[2*i+1].Net.AvgPacketLatency(),
		}
	}
	return rows, nil
}

// AblationPMTRow reports DI-VAXX behaviour across PMT sizes.
type AblationPMTRow struct {
	Benchmark string
	Entries   int
	Latency   float64
	Ratio     float64
}

// AblationPMT sweeps the dictionary PMT size (the paper fixes 8 entries;
// this quantifies that choice).
func AblationPMT(cfg Config, benchmarks []string, sizes []int) ([]AblationPMTRow, error) {
	if len(sizes) == 0 {
		sizes = []int{4, 8, 16, 32}
	}
	base, err := cfg.cells(benchmarks, []string{"ssca2"}, []compress.Scheme{compress.DIVaxx})
	if err != nil {
		return nil, err
	}
	cells := vary(base, len(sizes), func(c *cell, k int) { c.dict.Entries = sizes[k] })
	runs, err := replay(cfg, cells)
	if err != nil {
		return nil, err
	}
	rows := make([]AblationPMTRow, len(runs))
	for i, m := range runs {
		rows[i] = AblationPMTRow{
			Benchmark: m.Benchmark, Entries: cells[i].dict.Entries,
			Latency: m.Net.AvgPacketLatency(),
			Ratio:   m.Codec.CompressionRatio(),
		}
	}
	return rows, nil
}
