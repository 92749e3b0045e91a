package experiments

import (
	"fmt"

	"approxnoc/internal/apps"
	"approxnoc/internal/compress"
	"approxnoc/internal/fullsys"
	"approxnoc/internal/power"
)

// Fig16Row is one benchmark's bar group in Fig. 16: application output
// error and normalized performance at each error budget.
type Fig16Row struct {
	Benchmark string
	// ErrorAt maps threshold percent -> application output error.
	ErrorAt map[int]float64
	// PerfAt maps threshold percent -> performance normalized to the 0%
	// budget run.
	PerfAt map[int]float64
}

// Fig16 runs every application kernel through the cache substrate at each
// error budget, measuring output error directly and deriving normalized
// performance from the memory-stall model: kernels spend their time in
// accesses plus miss stalls, and miss stalls shrink with the packet
// latency the corresponding NoC replay measures.
func Fig16(cfg Config, thresholds []int) ([]Fig16Row, error) {
	if len(thresholds) == 0 {
		thresholds = []int{0, 10, 20}
	}
	// FP-VAXX is the scheme whose static patterns approximate without a
	// learning phase, making it the representative mechanism for the
	// application-level study (it is also the paper's best performer).
	scheme := compress.FPVaxx
	allApps := apps.All()
	names := make([]string, len(allApps))
	for i, app := range allApps {
		names[i] = app.Name()
	}
	// The NoC latency of each benchmark's traffic at each budget.
	base, err := cfg.cells(names, nil, []compress.Scheme{scheme})
	if err != nil {
		return nil, err
	}
	runs, err := replay(cfg, vary(base, len(thresholds), func(c *cell, k int) { c.threshold = thresholds[k] }))
	if err != nil {
		return nil, err
	}
	rows := make([]Fig16Row, len(allApps))
	for i, app := range allApps {
		rows[i] = Fig16Row{Benchmark: app.Name(), ErrorAt: map[int]float64{}, PerfAt: map[int]float64{}}
		var baseRuntime float64
		for k, th := range thresholds {
			res, err := app.Run(scheme, th)
			if err != nil {
				return nil, err
			}
			rows[i].ErrorAt[th] = res.OutputError
			rt := runtimeModel(res.CacheStats.Loads+res.CacheStats.Stores,
				res.CacheStats.Misses, runs[i*len(thresholds)+k].Net.AvgPacketLatency())
			if k == 0 {
				baseRuntime = rt
			}
			if rt > 0 {
				rows[i].PerfAt[th] = baseRuntime / rt
			}
		}
	}
	return rows, nil
}

// runtimeModel is the full-system performance proxy: one cycle per access
// plus a memory stall per miss composed of a fixed L2/directory latency
// and a round trip (request + data reply) at the measured average packet
// latency.
func runtimeModel(accesses, misses uint64, avgPacketLat float64) float64 {
	const l2Latency = 30.0
	return float64(accesses) + float64(misses)*(l2Latency+2*avgPacketLat)
}

// Fig16Measured is the measured variant of Fig. 16: kernels execute on
// the fullsys harness where every remote miss is a real request/reply
// round trip through the cycle-accurate NoC, so normalized performance
// comes from measured stall cycles instead of the analytic model.
// Expensive kernels are excluded by default; pass names to override.
// Every kernel x threshold cell is an independent fullsys machine, so
// the grid fans out through r's worker pool; rows are assembled serially
// from the ordered cells.
func Fig16Measured(r Runner, kernels []string, thresholds []int) ([]Fig16Row, error) {
	if len(kernels) == 0 {
		kernels = []string{"blackscholes", "x264", "ssca2"}
	}
	if len(thresholds) == 0 {
		thresholds = []int{0, 10, 20}
	}
	type measured struct {
		out []float64
		rt  float64
	}
	list := make([]apps.App, len(kernels))
	for k, name := range kernels {
		var err error
		if list[k], err = apps.ByName(name); err != nil {
			return nil, err
		}
	}
	cells, err := mapJobs(r, len(list)*len(thresholds), func(i int) (measured, error) {
		cfg := fullsys.DefaultConfig(compress.FPVaxx, thresholds[i%len(thresholds)])
		out, rt, err := fullsys.MeasureKernel(cfg, list[i/len(thresholds)].Kernel())
		if err != nil {
			return measured{}, err
		}
		return measured{out: out, rt: rt}, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig16Row
	for k, app := range list {
		row := Fig16Row{Benchmark: app.Name(), ErrorAt: map[int]float64{}, PerfAt: map[int]float64{}}
		var ref []float64
		var baseRuntime float64
		for i, th := range thresholds {
			c := cells[k*len(thresholds)+i]
			if i == 0 {
				ref, baseRuntime = c.out, c.rt
			}
			row.ErrorAt[th] = app.OutputError(ref, c.out)
			if c.rt > 0 {
				row.PerfAt[th] = baseRuntime / c.rt
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig17Result carries the bodytrack precise-vs-approximate comparison:
// the paper shows two output images; we report the numeric equivalents.
type Fig17Result struct {
	VectorDiff float64 // mean relative pose difference (§5.4 reports 2.4%)
	PSNR       float64 // similarity of the two outputs in dB
	Joints     int
}

// Fig17 runs bodytrack at the default 10% threshold and compares outputs
// in bodytrack's own output metric.
func Fig17(scheme compress.Scheme, thresholdPct int) (Fig17Result, error) {
	bodytrack, err := apps.ByName("bodytrack")
	if err != nil {
		return Fig17Result{}, err
	}
	ref, approx, psnr, err := apps.BodytrackOutputs(scheme, thresholdPct)
	if err != nil {
		return Fig17Result{}, err
	}
	return Fig17Result{VectorDiff: bodytrack.OutputError(ref, approx), PSNR: psnr, Joints: len(ref)}, nil
}

// AreaReport renders the §5.5 area and static power overhead table.
func AreaReport() string {
	var a power.AreaModel
	st := power.DefaultStatic()
	out := "Area and static power overhead per NI at 45nm (§5.5)\n"
	for _, s := range compress.AllSchemes() {
		if s == compress.Baseline {
			continue
		}
		out += fmt.Sprintf("  %-8s encoder %.4f mm²  decoder %.4f mm²  static +%.2f%% (4x4 cmesh)\n",
			s.String(), a.EncoderMM2(s), a.DecoderMM2(s), 100*st.Overhead(s, 16, 32))
	}
	return out
}
