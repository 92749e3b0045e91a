package apps

import (
	"math"
	"testing"

	"approxnoc/internal/compress"
)

func TestAllKernelsPresent(t *testing.T) {
	all := All()
	if len(all) != 8 {
		t.Fatalf("%d kernels, want 8", len(all))
	}
	want := []string{"blackscholes", "bodytrack", "canneal", "fluidanimate",
		"streamcluster", "swaptions", "x264", "ssca2"}
	for i, name := range want {
		if all[i].Name() != name {
			t.Fatalf("kernel %d is %q, want %q", i, all[i].Name(), name)
		}
	}
	if _, err := ByName("ssca2"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("quake"); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

// With a baseline (precise) channel every kernel must reproduce its own
// reference output exactly.
func TestKernelsSelfConsistentUnderBaseline(t *testing.T) {
	for _, app := range All() {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			res, err := app.Run(compress.Baseline, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.OutputError != 0 {
				t.Fatalf("baseline output error %g, want 0", res.OutputError)
			}
			if res.DataQuality != 1 {
				t.Fatalf("baseline data quality %g, want 1", res.DataQuality)
			}
		})
	}
}

// Exact compression schemes must also be lossless end to end.
func TestKernelsLosslessUnderExactCompression(t *testing.T) {
	for _, app := range []string{"blackscholes", "x264"} {
		a, _ := ByName(app)
		res, err := a.Run(compress.FPComp, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.OutputError != 0 {
			t.Fatalf("%s: FP-COMP output error %g, want 0", app, res.OutputError)
		}
	}
}

// The headline quality claim: at a 10% data error threshold, application
// output error stays low and data quality stays above ~97% (Fig. 9/16).
func TestKernelsBoundedErrorAtDefaultThreshold(t *testing.T) {
	if testing.Short() {
		t.Skip("full kernel sweep in short mode")
	}
	for _, app := range All() {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			res, err := app.Run(compress.DIVaxx, 10)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(res.OutputError) {
				t.Fatal("output error is NaN")
			}
			// streamcluster is the paper's own outlier; give it headroom.
			bound := 0.15
			if app.Name() == "streamcluster" {
				bound = 0.60
			}
			if res.OutputError > bound {
				t.Fatalf("output error %g exceeds %g", res.OutputError, bound)
			}
			if res.DataQuality < 0.95 {
				t.Fatalf("data quality %g below 0.95", res.DataQuality)
			}
			if res.CacheStats.Misses == 0 || res.CacheStats.Transfers == 0 {
				t.Fatal("kernel exercised no transfers")
			}
		})
	}
}

// Error should grow (or at least not shrink much) as the threshold grows.
func TestErrorGrowsWithThreshold(t *testing.T) {
	a, _ := ByName("blackscholes")
	lo, err := a.Run(compress.FPVaxx, 5)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := a.Run(compress.FPVaxx, 20)
	if err != nil {
		t.Fatal(err)
	}
	if hi.OutputError < lo.OutputError {
		t.Fatalf("error at 20%% (%g) below error at 5%% (%g)", hi.OutputError, lo.OutputError)
	}
}

func TestMeanRelErr(t *testing.T) {
	if e := meanRelErr([]float64{1, 2}, []float64{1, 2}); e != 0 {
		t.Fatalf("identical vectors error %g", e)
	}
	if e := meanRelErr([]float64{100, 100}, []float64{90, 110}); math.Abs(e-0.1) > 1e-12 {
		t.Fatalf("mean rel err %g, want 0.1", e)
	}
	if !math.IsNaN(meanRelErr([]float64{1}, []float64{1, 2})) {
		t.Fatal("length mismatch not flagged")
	}
	if !math.IsNaN(meanRelErr(nil, nil)) {
		t.Fatal("empty input not flagged")
	}
	// Near-zero reference entries must not explode the metric.
	e := meanRelErr([]float64{1e-15, 100}, []float64{1e-3, 100})
	if math.IsInf(e, 0) || e > 1e12 {
		t.Fatalf("zero-floor failed: %g", e)
	}
}

func TestPSNR(t *testing.T) {
	ref := []float64{10, 20, 30}
	if !math.IsInf(PSNR(ref, ref, 30), 1) {
		t.Fatal("identical frames should have infinite PSNR")
	}
	noisy := []float64{11, 21, 31}
	p := PSNR(ref, noisy, 30)
	if p < 20 || p > 40 {
		t.Fatalf("PSNR %g out of plausible band", p)
	}
	if !math.IsNaN(PSNR(ref, ref[:2], 30)) {
		t.Fatal("length mismatch not flagged")
	}
}

func TestBodytrackOutputsFig17(t *testing.T) {
	ref, approx, psnr, err := BodytrackOutputs(compress.FPVaxx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 || len(ref) != len(approx) {
		t.Fatal("pose trajectories malformed")
	}
	// "The two figures are very similar": high PSNR, small vector diff.
	if psnr < 20 {
		t.Fatalf("PSNR %g dB too low for the Fig. 17 claim", psnr)
	}
	if d := meanRelErr(ref, approx); d > 0.10 {
		t.Fatalf("pose difference %g too large", d)
	}
}

// The raw kernel, the value the full-system harness runs on its own
// cache system, runs on a precise system and scores zero error against
// itself.
func TestKernelOnPreciseSystem(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	a, err := ByName("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	out, _, _, err := run(a.Kernel(), compress.Baseline, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no outputs")
	}
	if e := a.OutputError(out, out); e != 0 {
		t.Fatalf("self error %g, want 0", e)
	}
}

// The threshold is validated where Run builds the codec fabric; the
// cache system never sees it.
func TestRunRejectsBogusThreshold(t *testing.T) {
	a, _ := ByName("swaptions")
	if _, err := a.Run(compress.DIVaxx, 500); err == nil {
		t.Fatal("bogus threshold accepted")
	}
}

// The approximate run's channel statistics are its codec fabric's.
func TestRunReportsFabricStats(t *testing.T) {
	a, _ := ByName("x264")
	res, err := a.Run(compress.FPComp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Channel.BlocksIn != res.CacheStats.Transfers || res.Channel.WordsExact == 0 {
		t.Fatalf("channel never compressed the %d transfers: %+v", res.CacheStats.Transfers, res.Channel)
	}
}

func TestRotate(t *testing.T) {
	if rotate(17, 16) != 1 || rotate(0, 16) != 0 {
		t.Fatal("rotate wrong")
	}
}
