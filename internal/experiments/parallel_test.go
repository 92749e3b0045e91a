package experiments

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"approxnoc/internal/golden"
	"approxnoc/internal/noc"
)

// update (GOLDEN=update, the switch every golden test shares) rewrites
// testdata/golden_figures.txt from the Jobs=1 renderings of
// TestDriversParallelEquivalence (full mode only: every driver must
// have run).
var update = os.Getenv("GOLDEN") == "update"

const goldenFigures = "testdata/golden_figures.txt"

// goldenSection frames one driver's rendering in the golden file;
// goldenSections reads the file back as name -> framed section.
func goldenSection(name, text string) string {
	return "=== " + name + " ===\n" + strings.TrimRight(text, "\n") + "\n"
}

func goldenSections(data string) map[string]string {
	out := map[string]string{}
	for _, sec := range strings.Split(data, "=== ")[1:] {
		name, _, _ := strings.Cut(sec, " ===\n")
		out[name] = "=== " + sec
	}
	return out
}

func TestMapJobsEmpty(t *testing.T) {
	out, err := mapJobs(8, 0, func(_ *noc.Arena, i int) (int, error) { return i, nil })
	if out != nil || err != nil {
		t.Fatalf("mapJobs(n=0) = (%v, %v), want (nil, nil)", out, err)
	}
}

func TestMapJobsOrdering(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 64} {
		out, err := mapJobs(workers, 37, func(_ *noc.Arena, i int) (int, error) {
			runtime.Gosched() // shake up the schedule
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapJobsLowestIndexError pins the error half of the determinism
// contract: whatever the interleaving, the reported error is the one the
// serial loop would have returned first.
func TestMapJobsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 8} {
		_, err := mapJobs(workers, 16, func(_ *noc.Arena, i int) (int, error) {
			if i >= 3 {
				return 0, fmt.Errorf("job %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "job 3 failed" {
			t.Fatalf("workers=%d: err = %v, want the lowest-index failure (job 3)", workers, err)
		}
	}
}

// TestDriversParallelEquivalence is the determinism gate for the whole
// experiment harness: every driver must render byte-identical output at
// Jobs=1 and Jobs=8, and the Jobs=1 rendering must be the section of
// testdata/golden_figures.txt under the driver's name (seed 1, 1 200
// cycles), so a change to the harness that moves any figure fails here.
// Short mode keeps a small subset so the race-detector pass in
// scripts/check.sh still exercises the parallel pool.
func TestDriversParallelEquivalence(t *testing.T) {
	if update && testing.Short() {
		t.Fatal("GOLDEN=update needs every driver: run without -short")
	}
	data, err := os.ReadFile(goldenFigures)
	if err != nil && !update {
		t.Fatal(err)
	}
	want := goldenSections(string(data))
	var sections strings.Builder
	ran := 0 // drivers whose rendering matched (or, updating, was taken)
	// Figs. 10, 11 and 15 are views of one grid per Jobs value; fig9 goes
	// through Fig9(cfg), the entry point benchmark/ times.
	grids := map[int]Grid{}
	grid := func(cfg Config) (Grid, error) {
		if g, ok := grids[cfg.Jobs]; ok {
			return g, nil
		}
		g, err := RunGrid(cfg)
		grids[cfg.Jobs] = g
		return g, err
	}
	cfg := Default()
	cfg.Cycles = 1200
	one := []string{"ssca2"}

	drivers := []struct {
		name  string
		short bool // runs in -short mode too
		run   func(cfg Config) (string, error)
	}{
		{name: "fig9", run: func(cfg Config) (string, error) {
			rows, err := Fig9(cfg)
			return FormatFig9(rows), err
		}},
		{name: "fig10", short: true, run: func(cfg Config) (string, error) {
			g, err := grid(cfg)
			return FormatFig10(g.Fig10()), err
		}},
		{name: "fig11", run: func(cfg Config) (string, error) {
			g, err := grid(cfg)
			return FormatFig11(g.Fig11()), err
		}},
		{name: "fig12", run: func(cfg Config) (string, error) {
			pts, err := Fig12(cfg, []string{"blackscholes"}, []float64{0.1, 0.3})
			return FormatFig12(pts), err
		}},
		{name: "fig13", run: func(cfg Config) (string, error) {
			rows, err := Fig13(cfg, []int{10})
			return FormatFig13(rows, []int{10}), err
		}},
		{name: "fig14", run: func(cfg Config) (string, error) {
			rows, err := Fig14(cfg, []int{75})
			return FormatFig14(rows, []int{75}), err
		}},
		{name: "fig15", run: func(cfg Config) (string, error) {
			g, err := grid(cfg)
			return FormatFig15(g.Fig15()), err
		}},
		{name: "fig16", run: func(cfg Config) (string, error) {
			rows, err := Fig16(cfg, []int{0, 10})
			return FormatFig16(rows, []int{0, 10}), err
		}},
		{name: "ablation-overlap", short: true, run: func(cfg Config) (string, error) {
			rows, err := AblationOverlap(cfg, one)
			return FormatAblationOverlap(rows), err
		}},
		{name: "ablation-pmt", run: func(cfg Config) (string, error) {
			rows, err := AblationPMT(cfg, one, []int{8, 32})
			return FormatAblationPMT(rows), err
		}},
		{name: "ablation-window", run: func(cfg Config) (string, error) {
			rows, err := AblationWindow(cfg, one)
			return FormatAblationWindow(rows), err
		}},
		{name: "ablation-router", run: func(cfg Config) (string, error) {
			rows, err := AblationRouter(cfg, one)
			return FormatAblationRouter(rows), err
		}},
		{name: "ablation-matchunits", run: func(cfg Config) (string, error) {
			rows, err := AblationMatchUnits(cfg, one, []int{4, 8})
			return FormatAblationMatchUnits(rows), err
		}},
		{name: "ablation-adaptive", run: func(cfg Config) (string, error) {
			rows, err := AblationAdaptive(cfg, one)
			return FormatAblationAdaptive(rows), err
		}},
		{name: "extension-bdi", run: func(cfg Config) (string, error) {
			rows, err := ExtensionBDI(cfg, one)
			return FormatExtensionBDI(rows), err
		}},
	}
	for _, d := range drivers {
		d := d
		t.Run(d.name, func(t *testing.T) {
			if testing.Short() && !d.short {
				t.Skip("full driver sweep skipped in short mode")
			}
			serialCfg := cfg
			serialCfg.Jobs = 1
			parallelCfg := cfg
			parallelCfg.Jobs = 8
			serial, err := d.run(serialCfg)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := d.run(parallelCfg)
			if err != nil {
				t.Fatal(err)
			}
			if serial != parallel {
				t.Fatalf("output diverges between -jobs 1 and -jobs 8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
			}
			if serial == "" {
				t.Fatal("driver rendered empty output")
			}
			section := goldenSection(d.name, serial)
			sections.WriteString(section)
			if !update && want[d.name] != section {
				t.Fatalf("rendering differs from %s (regenerate on purpose with GOLDEN=update go test ./...):\n--- got ---\n%s--- want ---\n%s", goldenFigures, section, want[d.name])
			}
			ran++
		})
	}
	// With every driver run, the file holds exactly their sections.
	switch {
	case ran == len(drivers):
		golden.Check(t, goldenFigures, []byte(sections.String()))
	case update && !t.Failed():
		t.Fatal("GOLDEN=update needs every driver: run without -run filters")
	}
}

// TestFig9PassAllocsSteady holds the runner's reuse to a steady state:
// every mapJobs worker builds on an arena it owns, which keeps a network
// body and spare codecs for every scheme it has run, and which no GC can
// empty. So, with the GC on, a Fig9 pass allocates the same count pass
// after pass: after two warm-up passes, ten consecutive passes must read
// mallocs within 1 % of their median, at Jobs 1 and 2 and at GOMAXPROCS
// 1 and 2. A GC runs before every pass, so reuse a GC could empty would
// show; the runtime's own work after a GC (the unique package's map
// cleanup allocates) gets a millisecond to finish outside the count. An
// arena grows as it meets the cells that size its body, and which cells
// a worker meets is timing, so a new worker's arena can take a pass or
// two more than two to meet them all: the combinations run twice, and the
// first round only warms the process.
func TestFig9PassAllocsSteady(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector skews heap accounting")
	}
	cfg := Default()
	cfg.Cycles = 300
	pass := func() float64 {
		runtime.GC()
		time.Sleep(time.Millisecond)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Fig9(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs - before.Mallocs)
	}
	for round := 0; round < 2; round++ {
		for _, procs := range []int{1, 2} {
			for _, jobs := range []int{1, 2} {
				func() {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					cfg.Jobs = jobs
					pass()
					pass()
					mallocs := make([]float64, 10)
					for i := range mallocs {
						mallocs[i] = pass()
					}
					sorted := slices.Clone(mallocs)
					slices.Sort(sorted)
					median := (sorted[4] + sorted[5]) / 2
					t.Logf("round %d, GOMAXPROCS %d, Jobs %d: mallocs per pass %v", round, procs, jobs, mallocs)
					if round == 0 {
						return
					}
					for i, m := range mallocs {
						if math.Abs(m-median) > 0.01*median {
							t.Errorf("GOMAXPROCS %d, Jobs %d: pass %d allocated %.0f times, more than 1 %% from the median %.0f", procs, jobs, i, m, median)
						}
					}
				}()
			}
		}
	}
}
