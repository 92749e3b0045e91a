package experiments

import (
	"fmt"

	"approxnoc/internal/apps"
	"approxnoc/internal/compress"
	"approxnoc/internal/fullsys"
	"approxnoc/internal/noc"
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

// Fig16 runs every application kernel at each error budget on the fullsys
// harness, where every remote miss is a real request/reply round trip
// through the cycle-accurate NoC: output error is scored against the 0%
// budget run in the kernel's own metric, and normalized performance comes
// from the measured runtime. Every kernel runs on the inputs of
// cfg.Seed. Every kernel x threshold cell is an independent fullsys
// machine, so the grid fans out through cfg's worker pool; rows are
// assembled serially from the ordered cells.
func Fig16(cfg Config, thresholds []int) ([]Fig16Row, error) {
	if len(thresholds) == 0 {
		thresholds = []int{0, 10, 20}
	}
	type measured struct {
		out []float64
		rt  float64
	}
	list := apps.All()
	cells, err := mapJobs(cfg.workers(), len(list)*len(thresholds), func(_ *noc.Arena, i int) (measured, error) {
		// FP-VAXX is the scheme whose static patterns approximate without
		// a learning phase, making it the representative mechanism for the
		// application-level study (it is also the paper's best performer).
		sys := fullsys.DefaultConfig(compress.FPVaxx, thresholds[i%len(thresholds)])
		out, rt, err := fullsys.MeasureKernel(sys, list[i/len(thresholds)].Kernel(cfg.Seed))
		return measured{out: out, rt: rt}, err
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig16Row, len(list))
	for k, app := range list {
		rows[k] = Fig16Row{Benchmark: app.Name(), ErrorAt: map[int]float64{}, PerfAt: map[int]float64{}}
		ref, baseRuntime := cells[k*len(thresholds)].out, cells[k*len(thresholds)].rt
		for i, th := range thresholds {
			c := cells[k*len(thresholds)+i]
			rows[k].ErrorAt[th] = app.OutputError(ref, c.out)
			if c.rt > 0 {
				rows[k].PerfAt[th] = baseRuntime / c.rt
			}
		}
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
