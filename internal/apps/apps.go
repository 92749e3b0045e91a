// Package apps reimplements the evaluation's application kernels — the
// regions of interest of seven PARSEC benchmarks plus SSCA2's betweenness
// centrality — on top of the cachesim substrate, with the paper's
// application-specific accuracy metrics (§5.4). Each kernel runs twice:
// once precise (baseline channel) and once with its annotated approximable
// data flowing through an APPROX-NoC scheme; the output error compares the
// two, reproducing Fig. 16's error bars and Fig. 17's bodytrack
// comparison.
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

// App is one benchmark kernel.
type App interface {
	// Name returns the benchmark name used in the paper's figures.
	Name() string
	// Run executes the kernel precise and approximate and reports the
	// output error under the given channel scheme and error threshold.
	Run(scheme compress.Scheme, thresholdPct int) (Result, error)
}

// All returns the eight kernels in figure order.
func All() []App {
	return []App{
		newBlackscholes(),
		newBodytrack(),
		newCanneal(),
		newFluidanimate(),
		newStreamcluster(),
		newSwaptions(),
		newX264(),
		newSSCA2(),
	}
}

// ByName returns the kernel with the given benchmark name.
func ByName(name string) (App, error) {
	for _, a := range All() {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("apps: unknown benchmark %q", name)
}

// newSystem builds a cache system for one run.
func newSystem(scheme compress.Scheme, thresholdPct int) (*cachesim.System, error) {
	return cachesim.New(cachesim.DefaultConfig(scheme, thresholdPct))
}

// RunnerFor returns a kernel's raw run function by benchmark name, for
// harnesses that supply their own cache systems (the full-system NoC
// coupling).
func RunnerFor(name string) (func(*cachesim.System) ([]float64, error), error) {
	a, err := ByName(name)
	if err != nil {
		return nil, err
	}
	run, ok := kernelRunner(a)
	if !ok {
		return nil, fmt.Errorf("apps: kernel %q has no raw runner", name)
	}
	return run, nil
}

// kernelRunner exposes a kernel's raw run function for harnesses that
// supply their own cache systems (the full-system NoC coupling).
func kernelRunner(a App) (func(*cachesim.System) ([]float64, error), bool) {
	switch k := a.(type) {
	case *blackscholes:
		return k.run, true
	case *swaptions:
		return k.run, true
	case *bodytrack:
		return k.run, true
	case *x264:
		return k.run, true
	case *fluidanimate:
		return k.run, true
	case *canneal:
		return k.run, true
	case *streamcluster:
		return k.run, true
	case *ssca2:
		return k.run, true
	}
	return nil, false
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

// result packages the common fields of a finished run.
func result(name string, outputErr float64, sys *cachesim.System) Result {
	return Result{
		Name:        name,
		OutputError: outputErr,
		DataQuality: sys.ChannelStats().DataQuality(),
		CacheStats:  sys.Stats(),
		Channel:     sys.ChannelStats(),
	}
}

// rotate maps a work-item index onto a core, spreading accesses across
// caches so block transfers actually occur.
func rotate(i, cores int) int { return i % cores }
