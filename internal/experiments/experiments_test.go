package experiments

import (
	"strings"
	"sync"
	"testing"

	"approxnoc/internal/compress"
	"approxnoc/internal/noc"
	"approxnoc/internal/traffic"
	"approxnoc/internal/workload"
)

// quickCfg is a small configuration for test-speed runs.
func quickCfg() Config {
	cfg := Default()
	cfg.Cycles = 4000
	return cfg
}

// quickGrid is the one grid the Fig. 9/10/11/15 shape tests all read.
var quickGrid = sync.OnceValues(func() (Grid, error) { return RunGrid(quickCfg()) })

func TestRunTraceProducesTraffic(t *testing.T) {
	cfg := quickCfg()
	model, _ := workload.ByName("ssca2")
	m, err := cfg.cell(model, compress.DIVaxx).run(cfg, new(noc.Arena))
	if err != nil {
		t.Fatal(err)
	}
	if m.Net.PacketsDelivered == 0 {
		t.Fatal("no packets delivered")
	}
	if m.Net.DataDelivered == 0 {
		t.Fatal("no data packets delivered")
	}
	if m.Codec.WordsIn == 0 {
		t.Fatal("codec saw no words")
	}
	if m.DynPowerMW <= 0 {
		t.Fatal("no dynamic power")
	}
}

// The headline result: VAXX schemes must inject fewer data flits than
// their exact counterparts, which inject fewer than baseline.
func TestVaxxReducesTraffic(t *testing.T) {
	cfg := quickCfg()
	model, _ := workload.ByName("ssca2")
	flits := map[compress.Scheme]uint64{}
	for _, s := range compress.AllSchemes() {
		m, err := cfg.cell(model, s).run(cfg, new(noc.Arena))
		if err != nil {
			t.Fatal(err)
		}
		flits[s] = m.Net.DataFlitsInjected
	}
	if flits[compress.DIComp] >= flits[compress.Baseline] {
		t.Fatalf("DI-COMP %d >= baseline %d", flits[compress.DIComp], flits[compress.Baseline])
	}
	if flits[compress.FPComp] >= flits[compress.Baseline] {
		t.Fatalf("FP-COMP %d >= baseline %d", flits[compress.FPComp], flits[compress.Baseline])
	}
	if flits[compress.DIVaxx] > flits[compress.DIComp] {
		t.Fatalf("DI-VAXX %d > DI-COMP %d", flits[compress.DIVaxx], flits[compress.DIComp])
	}
	if flits[compress.FPVaxx] > flits[compress.FPComp] {
		t.Fatalf("FP-VAXX %d > FP-COMP %d", flits[compress.FPVaxx], flits[compress.FPComp])
	}
}

func TestFig9ShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure in short mode")
	}
	g, err := quickGrid()
	if err != nil {
		t.Fatal(err)
	}
	rows := g.Fig9()
	// 8 benchmarks + AVG, 5 schemes each.
	if len(rows) != 9*5 {
		t.Fatalf("%d rows, want 45", len(rows))
	}
	get := func(bench string, s compress.Scheme) Fig9Row {
		for _, r := range rows {
			if r.Benchmark == bench && r.Scheme == s {
				return r
			}
		}
		t.Fatalf("row %s/%v missing", bench, s)
		return Fig9Row{}
	}
	// Quality: baseline is exact; VAXX quality stays above 0.95 at the 10%
	// threshold (paper: >0.97).
	for _, bench := range []string{"blackscholes", "ssca2", "AVG"} {
		if q := get(bench, compress.Baseline).Quality; q != 1 {
			t.Fatalf("%s baseline quality %g", bench, q)
		}
		if q := get(bench, compress.DIVaxx).Quality; q < 0.95 {
			t.Fatalf("%s DI-VAXX quality %g", bench, q)
		}
		if q := get(bench, compress.FPVaxx).Quality; q < 0.93 {
			t.Fatalf("%s FP-VAXX quality %g", bench, q)
		}
	}
	// Latency: on the data-intensive benchmark, compression beats baseline
	// and VAXX does not lose to its exact counterpart.
	ss := "ssca2"
	if get(ss, compress.FPVaxx).TotalLat > get(ss, compress.Baseline).TotalLat {
		t.Fatalf("FP-VAXX latency above baseline on %s", ss)
	}
	if get(ss, compress.DIVaxx).TotalLat > 1.05*get(ss, compress.DIComp).TotalLat {
		t.Fatalf("DI-VAXX latency clearly above DI-COMP on %s", ss)
	}
}

func TestFig10VaxxEncodesMore(t *testing.T) {
	g, err := quickGrid()
	if err != nil {
		t.Fatal(err)
	}
	rows := g.Fig10()
	byKey := map[string]Fig10Row{}
	for _, r := range rows {
		byKey[r.Benchmark+"/"+r.Scheme.String()] = r
	}
	gm := byKey["GMEAN/FP-VAXX"]
	if gm.ApproxFrac <= 0 {
		t.Fatal("FP-VAXX GMEAN has no approximate matches")
	}
	if byKey["GMEAN/FP-VAXX"].EncodedFrac <= byKey["GMEAN/FP-COMP"].EncodedFrac {
		t.Fatal("FP-VAXX does not encode more words than FP-COMP")
	}
	if byKey["GMEAN/DI-VAXX"].Ratio < byKey["GMEAN/DI-COMP"].Ratio {
		t.Fatal("DI-VAXX compression ratio below DI-COMP")
	}
	// Exact schemes never approximate.
	if byKey["GMEAN/FP-COMP"].ApproxFrac != 0 || byKey["GMEAN/DI-COMP"].ApproxFrac != 0 {
		t.Fatal("exact schemes reported approximate words")
	}
}

func TestFig11Normalization(t *testing.T) {
	g, err := quickGrid()
	if err != nil {
		t.Fatal(err)
	}
	rows := g.Fig11()
	for _, r := range rows {
		if r.Scheme == compress.Baseline && r.NormFlits != 1 {
			t.Fatalf("%s baseline norm %g", r.Benchmark, r.NormFlits)
		}
		if r.NormFlits <= 0 || r.NormFlits > 1.2 {
			t.Fatalf("%s/%v norm flits %g implausible", r.Benchmark, r.Scheme, r.NormFlits)
		}
	}
}

func TestFig12CurveAndSaturation(t *testing.T) {
	cfg := quickCfg()
	cfg.Cycles = 3000
	pts, err := Fig12(cfg, []string{"blackscholes"}, []float64{0.1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// 1 benchmark x 2 patterns x 5 schemes x 2 rates.
	if len(pts) != 20 {
		t.Fatalf("%d points, want 20", len(pts))
	}
	// Every scheme sustains the low rate under uniform-random traffic.
	for _, p := range pts {
		if p.Pattern == traffic.UniformRandom && p.Rate == 0.1 && p.Saturated {
			t.Fatalf("%v saturated at rate %g", p.Scheme, p.Rate)
		}
	}
}

func TestFig13LatencyImprovesWithThreshold(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity sweep in short mode")
	}
	cfg := quickCfg()
	cfg.Cycles = 3000
	rows, err := Fig13(cfg, []int{5, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("%d rows, want 16", len(rows))
	}
	// Find ssca2 DI-based: the 20% latency should not exceed the 5%.
	for _, r := range rows {
		if r.Benchmark == "ssca2" && r.Family == "DI-based" {
			if r.ThresholdLat[20] > r.ThresholdLat[5]*1.05 {
				t.Fatalf("latency grew with threshold: %v", r.ThresholdLat)
			}
		}
	}
}

func TestFig14RatiosPresent(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity sweep in short mode")
	}
	cfg := quickCfg()
	cfg.Cycles = 2500
	rows, err := Fig14(cfg, []int{25, 75})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.RatioLat[25] == 0 || r.RatioLat[75] == 0 {
			t.Fatalf("missing ratio data: %+v", r)
		}
	}
}

func TestFig15CompressionSavesPower(t *testing.T) {
	g, err := quickGrid()
	if err != nil {
		t.Fatal(err)
	}
	rows := g.Fig15()
	for _, r := range rows {
		if r.Scheme == compress.Baseline && r.NormPower != 1 {
			t.Fatalf("baseline norm power %g", r.NormPower)
		}
	}
	// On the data-heavy benchmark the compressed schemes must save power.
	for _, r := range rows {
		if r.Benchmark == "ssca2" && r.Scheme == compress.FPVaxx && r.NormPower >= 1 {
			t.Fatalf("FP-VAXX norm power %g >= 1 on ssca2", r.NormPower)
		}
	}
}

func TestFig17(t *testing.T) {
	r, err := Fig17(compress.FPVaxx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.VectorDiff > 0.10 {
		t.Fatalf("bodytrack output difference %g too large", r.VectorDiff)
	}
	if r.Joints == 0 {
		t.Fatal("no pose data")
	}
}

func TestAblationOverlapHelps(t *testing.T) {
	cfg := quickCfg()
	cfg.Cycles = 3000
	rows, err := AblationOverlap(cfg, []string{"ssca2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.LatencyOn > r.LatencyOff {
			t.Fatalf("%v: optimizations hurt (%.2f on vs %.2f off)", r.Scheme, r.LatencyOn, r.LatencyOff)
		}
	}
}

func TestAblationPMTSweep(t *testing.T) {
	cfg := quickCfg()
	cfg.Cycles = 2500
	rows, err := AblationPMT(cfg, []string{"ssca2"}, []int{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	// Bigger PMT should not compress worse.
	if rows[1].Ratio < rows[0].Ratio*0.98 {
		t.Fatalf("16-entry ratio %g below 4-entry %g", rows[1].Ratio, rows[0].Ratio)
	}
}

func TestAblationWindowAdmitsMore(t *testing.T) {
	cfg := quickCfg()
	cfg.Cycles = 3000
	rows, err := AblationWindow(cfg, []string{"ssca2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	perWord, windowed := rows[0], rows[1]
	if windowed.ApproxFrac < perWord.ApproxFrac {
		t.Fatalf("windowed approx fraction %g below per-word %g",
			windowed.ApproxFrac, perWord.ApproxFrac)
	}
	if windowed.Quality < 0.95 {
		t.Fatalf("windowed quality %g collapsed", windowed.Quality)
	}
}

// Outside input a driver must answer with an error: the windowed
// factory used to hand the network a nil codec at an out-of-range
// threshold, and zero cycles rendered a table of zeros.
func TestDriversRejectBadConfig(t *testing.T) {
	bad := map[string]func(*Config){
		"threshold 150": func(c *Config) { c.ErrorThreshold = 150 },
		"cycles 0":      func(c *Config) { c.Cycles = 0 },
		"ratio 1.5":     func(c *Config) { c.ApproxRatio = 1.5 },
	}
	for name, mutate := range bad {
		cfg := quickCfg()
		mutate(&cfg)
		if _, err := AblationWindow(cfg, []string{"ssca2"}); err == nil {
			t.Errorf("AblationWindow accepted %s", name)
		}
		if _, err := RunGrid(cfg); err == nil {
			t.Errorf("RunGrid accepted %s", name)
		}
	}
}

func TestTable1AndAreaRender(t *testing.T) {
	s := Table1(Default())
	for _, want := range []string{"4x4", "wormhole", "XY routing", "10%", "8-entry"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table 1 missing %q:\n%s", want, s)
		}
	}
	a := AreaReport()
	if !strings.Contains(a, "0.0037") || !strings.Contains(a, "DI-VAXX") {
		t.Fatalf("area report:\n%s", a)
	}
}

func TestRenderersProduceTables(t *testing.T) {
	f9 := FormatFig9([]Fig9Row{{Benchmark: "x", Scheme: compress.Baseline, TotalLat: 10}})
	if !strings.Contains(f9, "benchmark") || !strings.Contains(f9, "x") {
		t.Fatal("Fig9 render broken")
	}
	f12 := FormatFig12([]Fig12Point{{Benchmark: "x", Scheme: compress.Baseline, Rate: 0.1, Latency: 12}})
	if !strings.Contains(f12, "0.10:12") {
		t.Fatalf("Fig12 render broken: %s", f12)
	}
	f16 := FormatFig16([]Fig16Row{{Benchmark: "x", ErrorAt: map[int]float64{0: 0}, PerfAt: map[int]float64{0: 1}}}, []int{0})
	if !strings.Contains(f16, "err@0") {
		t.Fatal("Fig16 render broken")
	}
	f17 := FormatFig17(Fig17Result{VectorDiff: 0.02, PSNR: 30, Joints: 4})
	if !strings.Contains(f17, "0.02") {
		t.Fatal("Fig17 render broken")
	}
}
