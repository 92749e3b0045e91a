package experiments

import (
	"strings"
	"sync"
	"testing"

	"approxnoc/internal/apps"
	"approxnoc/internal/compress"
	"approxnoc/internal/traffic"
)

func TestFormatFig10Table(t *testing.T) {
	out := FormatFig10([]Fig10Row{{Benchmark: "ssca2", Scheme: compress.FPVaxx,
		ExactFrac: 0.2, ApproxFrac: 0.1, EncodedFrac: 0.3, Ratio: 1.5}})
	for _, want := range []string{"ssca2", "FP-VAXX", "1.500", "0.300"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFormatFig11Table(t *testing.T) {
	out := FormatFig11([]Fig11Row{{Benchmark: "x264", Scheme: compress.DIComp, NormFlits: 0.8}})
	if !strings.Contains(out, "x264") || !strings.Contains(out, "0.800") {
		t.Fatalf("bad table:\n%s", out)
	}
}

func TestFormatFig13Fig14Tables(t *testing.T) {
	f13 := FormatFig13([]Fig13Row{{
		Benchmark: "ssca2", Family: "DI-based", ExactLat: 20,
		ThresholdLat: map[int]float64{5: 18, 10: 17, 20: 16},
	}}, []int{5, 10, 20})
	for _, want := range []string{"ssca2", "DI-based", "20.00", "16.00"} {
		if !strings.Contains(f13, want) {
			t.Fatalf("fig13 missing %q:\n%s", want, f13)
		}
	}
	f14 := FormatFig14([]Fig14Row{{
		Benchmark: "swaptions", Family: "FP-based", ExactLat: 21,
		RatioLat: map[int]float64{25: 20, 75: 18},
	}}, []int{25, 75})
	if !strings.Contains(f14, "swaptions") || !strings.Contains(f14, "18.00") {
		t.Fatalf("fig14 table:\n%s", f14)
	}
	// Default threshold columns when nil is passed.
	if !strings.Contains(FormatFig13(nil, nil), "5%") {
		t.Fatal("fig13 default thresholds missing")
	}
	if !strings.Contains(FormatFig14(nil, nil), "25%") {
		t.Fatal("fig14 default ratios missing")
	}
}

func TestFormatFig15Table(t *testing.T) {
	out := FormatFig15([]Fig15Row{{Benchmark: "canneal", Scheme: compress.Baseline, NormPower: 1, PowerMW: 42}})
	if !strings.Contains(out, "canneal") || !strings.Contains(out, "42.00") {
		t.Fatalf("fig15 table:\n%s", out)
	}
}

func TestFormatAblationTables(t *testing.T) {
	ov := FormatAblationOverlap([]AblationOverlapRow{{Benchmark: "ssca2", Scheme: compress.DIVaxx, LatencyOn: 10, LatencyOff: 12}})
	if !strings.Contains(ov, "12.00") {
		t.Fatalf("overlap table:\n%s", ov)
	}
	pmt := FormatAblationPMT([]AblationPMTRow{{Benchmark: "ssca2", Entries: 8, Latency: 11, Ratio: 1.4}})
	if !strings.Contains(pmt, "1.400") {
		t.Fatalf("pmt table:\n%s", pmt)
	}
	win := FormatAblationWindow([]AblationWindowRow{{Benchmark: "x264", Mode: "windowed", ApproxFrac: 0.1, Ratio: 2, Quality: 0.99, Latency: 15}})
	if !strings.Contains(win, "windowed") {
		t.Fatalf("window table:\n%s", win)
	}
	ad := FormatAblationAdaptive([]AblationAdaptiveRow{{Benchmark: "streamcluster", Scheme: compress.DIVaxx, LatencyPlain: 25, LatencyAdaptive: 23}})
	if !strings.Contains(ad, "23.00") {
		t.Fatalf("adaptive table:\n%s", ad)
	}
	mu := FormatAblationMatchUnits([]AblationMatchUnitsRow{{Benchmark: "ssca2", Scheme: compress.FPVaxx, Units: 8, Latency: 26}})
	if !strings.Contains(mu, "26.00") {
		t.Fatalf("matchunits table:\n%s", mu)
	}
	bd := FormatExtensionBDI([]ExtensionBDIRow{{Benchmark: "canneal", Scheme: compress.BDVaxx, Latency: 12, Ratio: 1.2, Quality: 1}})
	if !strings.Contains(bd, "BD-VAXX") {
		t.Fatalf("bdi table:\n%s", bd)
	}
}

func TestFormatFig12SeriesGrouping(t *testing.T) {
	pts := []Fig12Point{
		{Benchmark: "a", Pattern: traffic.UniformRandom, Scheme: compress.Baseline, Rate: 0.1, Latency: 10},
		{Benchmark: "a", Pattern: traffic.UniformRandom, Scheme: compress.Baseline, Rate: 0.2, Saturated: true},
		{Benchmark: "a", Pattern: traffic.Transpose, Scheme: compress.FPVaxx, Rate: 0.1, Latency: 12},
	}
	out := FormatFig12(pts)
	if !strings.Contains(out, "SAT") {
		t.Fatalf("saturation marker missing:\n%s", out)
	}
	if !strings.Contains(out, "transpose") {
		t.Fatalf("pattern missing:\n%s", out)
	}
}

func TestExtensionBDIDriver(t *testing.T) {
	cfg := quickCfg()
	cfg.Cycles = 2000
	rows, err := ExtensionBDI(cfg, []string{"canneal"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(compress.ExtendedSchemes()) {
		t.Fatalf("%d rows", len(rows))
	}
	byScheme := map[compress.Scheme]ExtensionBDIRow{}
	for _, r := range rows {
		byScheme[r.Scheme] = r
	}
	// Canneal carries pointer-array blocks: BD-COMP must compress them.
	if byScheme[compress.BDComp].Ratio <= 1.0 {
		t.Fatalf("BD-COMP ratio %g on pointer-heavy canneal", byScheme[compress.BDComp].Ratio)
	}
	// Exact schemes never lose data.
	if byScheme[compress.BDComp].Quality != 1 || byScheme[compress.DIComp].Quality != 1 {
		t.Fatal("exact schemes show quality loss")
	}
}

func TestAblationAdaptiveDriver(t *testing.T) {
	cfg := quickCfg()
	cfg.Cycles = 2000
	rows, err := AblationAdaptive(cfg, []string{"streamcluster"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.LatencyPlain <= 0 || r.LatencyAdaptive <= 0 {
			t.Fatalf("missing latencies: %+v", r)
		}
	}
}

func TestAblationMatchUnitsDriver(t *testing.T) {
	cfg := quickCfg()
	cfg.Cycles = 2000
	rows, err := AblationMatchUnits(cfg, []string{"ssca2"}, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 schemes x 2 unit counts
		t.Fatalf("%d rows", len(rows))
	}
	// One matching unit must be slower than eight for the same scheme.
	for _, scheme := range []compress.Scheme{compress.DIVaxx, compress.FPVaxx} {
		var one, eight float64
		for _, r := range rows {
			if r.Scheme != scheme {
				continue
			}
			if r.Units == 1 {
				one = r.Latency
			} else {
				eight = r.Latency
			}
		}
		if one <= eight {
			t.Fatalf("%v: 1 unit (%.2f) not slower than 8 (%.2f)", scheme, one, eight)
		}
	}
}

// fig16Rows is the one Fig. 16 run the driver tests read.
var fig16Rows = sync.OnceValues(func() ([]Fig16Row, error) {
	return Fig16(quickCfg(), []int{0, 10})
})

// TestFig16Seeds holds Fig. 16 to its seed: seed 7 measures other
// inputs than seed 1, whose rows fig16Rows holds.
func TestFig16Seeds(t *testing.T) {
	if testing.Short() {
		t.Skip("all eight kernels through the full-system coupling in short mode")
	}
	one, err := fig16Rows()
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg()
	cfg.Seed = 7
	seven, err := Fig16(cfg, []int{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	if FormatFig16(one, []int{0, 10}) == FormatFig16(seven, []int{0, 10}) {
		t.Fatal("Fig. 16 at seed 7 renders as at seed 1")
	}
}

// TestFig16VariantsAgree holds the codec-fabric path that Fig. 17 and
// approxnoc-apps use to the NoC path Fig. 16 measures. FP-VAXX codecs are
// stateless, so a kernel reads the same values whether its misses cross
// the codec fabric (apps.App.Run) or the cycle-accurate NoC (Fig16); the
// two must then report the same error, scored in each kernel's own
// metric.
func TestFig16VariantsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("all eight kernels through the full-system coupling in short mode")
	}
	rows, err := fig16Rows()
	if err != nil {
		t.Fatal(err)
	}
	for i, app := range apps.All() {
		for _, th := range []int{0, 10} {
			res, err := app.Run(compress.FPVaxx, th)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := rows[i].ErrorAt[th], res.OutputError; got != want {
				t.Errorf("%s at %d%%: Fig16 error %v, codec-fabric error %v", app.Name(), th, got, want)
			}
		}
	}
}

func TestFig16Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system sweep in short mode")
	}
	rows, err := fig16Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// At a 0% budget the scheme is exact: no output error.
		if r.ErrorAt[0] != 0 {
			t.Fatalf("%s: error %g at 0%% budget", r.Benchmark, r.ErrorAt[0])
		}
		if r.PerfAt[0] != 1 {
			t.Fatalf("%s: perf %g at baseline budget", r.Benchmark, r.PerfAt[0])
		}
		// Approximation through the real network must not hurt measured
		// performance.
		if r.PerfAt[10] < 0.99 {
			t.Fatalf("%s: measured perf %g dropped at 10%% budget", r.Benchmark, r.PerfAt[10])
		}
		if r.Benchmark == "blackscholes" && r.ErrorAt[10] > 0.10 {
			t.Fatalf("blackscholes: measured error %g beyond budget", r.ErrorAt[10])
		}
	}
}

func TestAblationRouterDriver(t *testing.T) {
	cfg := quickCfg()
	cfg.Cycles = 2000
	rows, err := AblationRouter(cfg, []string{"ssca2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 2 schemes x 6 provisioning points
		t.Fatalf("%d rows", len(rows))
	}
	// The starved configuration must be slower than the generous one for
	// the baseline scheme.
	var starved, generous float64
	for _, r := range rows {
		if r.Scheme != compress.Baseline {
			continue
		}
		if r.VCs == 2 && r.BufDepth == 2 {
			starved = r.Latency
		}
		if r.VCs == 8 && r.BufDepth == 4 {
			generous = r.Latency
		}
	}
	if starved <= generous {
		t.Fatalf("starved router %.2f not slower than generous %.2f", starved, generous)
	}
	out := FormatAblationRouter(rows)
	if !strings.Contains(out, "depth") {
		t.Fatalf("router table:\n%s", out)
	}
}
