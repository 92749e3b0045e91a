// Package apps reimplements the evaluation's application kernels — the
// regions of interest of seven PARSEC benchmarks plus SSCA2's betweenness
// centrality — on top of the cachesim substrate, with the paper's
// application-specific accuracy metrics (§5.4). An App is one kernel and
// the one metric its output error is reported in. Run executes the
// kernel twice on the §5.4 cache system, once precise (baseline channel)
// and once with its annotated approximable data flowing through an
// APPROX-NoC codec fabric, and scores the second output against the
// first, reproducing Fig. 16's error bars and Fig. 17's bodytrack
// comparison. Harnesses that supply their own fill path (the full-system
// NoC coupling) run Kernel themselves and score with OutputError.
package apps

import (
	"fmt"
	"math"

	"approxnoc/internal/cachesim"
	"approxnoc/internal/compress"
)

// Result summarizes one approximate kernel run against its precise twin.
type Result struct {
	Name string
	// OutputError is the application-specific accuracy metric: 0 means
	// identical outputs, 0.05 means 5% output error.
	OutputError float64
	// DataQuality is the channel-level word quality (1 - mean rel error).
	DataQuality float64
	// CacheStats comes from the approximate run's cache system.
	CacheStats cachesim.Stats
	// Channel is the approximate run's codec statistics.
	Channel compress.OpStats
}

// App is one benchmark kernel with its accuracy metric.
type App struct {
	name   string
	kernel func(*cachesim.System) ([]float64, error)
	metric func(ref, got []float64) float64
}

// All returns the eight kernels in figure order.
func All() []App {
	return []App{
		{"blackscholes", blackscholes, meanRelErr},
		{"bodytrack", bodytrack, meanRelErr},
		{"canneal", canneal, meanRelErr},
		{"fluidanimate", fluidanimate, meanRelErr},
		{"streamcluster", streamcluster, clusterErr},
		{"swaptions", swaptions, meanRelErr},
		{"x264", x264, meanRelErr},
		{"ssca2", ssca2, meanRelErr},
	}
}

// ByName returns the kernel with the given benchmark name.
func ByName(name string) (App, error) {
	for _, a := range All() {
		if a.name == name {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("apps: unknown benchmark %q", name)
}

// Name returns the benchmark name used in the paper's figures.
func (a App) Name() string { return a.name }

// Kernel returns the raw kernel, for harnesses that supply their own
// cache system (the full-system NoC coupling).
func (a App) Kernel() func(*cachesim.System) ([]float64, error) { return a.kernel }

// OutputError scores an approximate output against the precise reference
// in the kernel's own accuracy metric (see Result.OutputError).
func (a App) OutputError(ref, got []float64) float64 { return a.metric(ref, got) }

// Run executes the kernel precise and approximate and reports the output
// error under the given channel scheme and error threshold.
func (a App) Run(scheme compress.Scheme, thresholdPct int) (Result, error) {
	ref, _, _, err := run(a.kernel, compress.Baseline, 0)
	if err != nil {
		return Result{}, err
	}
	got, cache, channel, err := run(a.kernel, scheme, thresholdPct)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Name:        a.name,
		OutputError: a.metric(ref, got),
		DataQuality: channel.DataQuality(),
		CacheStats:  cache,
		Channel:     channel,
	}, nil
}

// run executes kernel on a fresh §5.4 cache system whose remote fills
// cross a codec fabric of the given scheme, and returns the outputs with
// the cache and channel statistics.
func run(kernel func(*cachesim.System) ([]float64, error), scheme compress.Scheme, thresholdPct int) ([]float64, cachesim.Stats, compress.OpStats, error) {
	cfg := cachesim.DefaultConfig()
	factory, err := compress.FactoryFor(scheme, cfg.Cores, thresholdPct)
	if err != nil {
		return nil, cachesim.Stats{}, compress.OpStats{}, err
	}
	fabric := compress.NewFabric(cfg.Cores, factory)
	sys, err := cachesim.New(cfg, fabric.Transfer)
	if err != nil {
		return nil, cachesim.Stats{}, compress.OpStats{}, err
	}
	out, err := kernel(sys)
	return out, sys.Stats(), fabric.Stats(), err
}

// meanRelErr returns the mean element-wise relative difference between a
// reference and an approximate output vector, with a magnitude floor so
// near-zero reference elements don't blow up the metric (the treatment
// prior approximate-computing work uses).
func meanRelErr(ref, approx []float64) float64 {
	if len(ref) == 0 || len(ref) != len(approx) {
		return math.NaN()
	}
	floor := 0.0
	for _, r := range ref {
		floor += math.Abs(r)
	}
	floor = floor / float64(len(ref)) * 1e-6
	if floor == 0 {
		floor = 1e-12
	}
	sum := 0.0
	for i := range ref {
		den := math.Abs(ref[i])
		if den < floor {
			den = floor
		}
		sum += math.Abs(ref[i]-approx[i]) / den
	}
	return sum / float64(len(ref))
}

// rotate maps a work-item index onto a core, spreading accesses across
// caches so block transfers actually occur.
func rotate(i, cores int) int { return i % cores }
