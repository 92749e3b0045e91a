// Command benchmark is the repo's benchmark: seven closed-loop workloads
// over the serving stack, the codecs and the cycle-accurate simulator,
// each reporting host speed, the modelled design's results and the §3.2
// error contract from one command. BENCHMARK.json declares the metrics;
// README.md in this directory records why each workload exists and which
// end-to-end metric each layer metric should move.
//
//	go run ./benchmark                       every workload, timed then traced
//	go run ./benchmark -selfcheck            the suite twice, A/A within bounds
//	go run ./benchmark --workload NAME --seed N --seconds S --trace 0|1
//	                                         one run; last line is its JSON result
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// runOpts is one run of one workload.
type runOpts struct {
	seed    uint64
	seconds float64
	traced  bool
	// quick shrinks pools, windows and simulated cycles to a smoke test:
	// it shows every metric can be produced, not what its value is.
	quick bool
	// updateGolden rewrites the golden files instead of checking them.
	updateGolden bool
	spec         *benchSpec
	log          io.Writer
}

// timedReps is how many timed repetitions the window of a wire or codec
// run is cut into; the run reports their median. On a shared two-CPU box
// the noise is stretches of a second or so in which the process gets
// less of the machine: many short repetitions put each stretch into a few
// of them, where the median ignores it, while a few long ones would
// spread it over all. At the declared 10 s a repetition is 0.5 s.
const timedReps = 20

// tracePhases is how many phases a traced run cuts the same window into.
const tracePhases = 5

func (o *runOpts) reps() int {
	if o.quick {
		return 1
	}
	return timedReps
}

// repDur is the length of one timed repetition.
func (o *runOpts) repDur() time.Duration {
	return time.Duration(o.seconds / float64(o.reps()) * float64(time.Second))
}

// phaseDur is the length of one phase of a traced run.
func (o *runOpts) phaseDur() time.Duration {
	return time.Duration(o.seconds / tracePhases * float64(time.Second))
}

// setupReps is how many times a run sets up to report a median setup_s.
func (o *runOpts) setupReps() int {
	if o.quick {
		return 1
	}
	return 15
}

func (o *runOpts) perModel() int {
	if o.quick {
		return 256
	}
	return blocksPerModel
}

func (o *runOpts) logf(format string, args ...any) { fmt.Fprintf(o.log, format+"\n", args...) }

// failLog counts contract violations and failed operations and keeps the
// first few for the report.
type failLog struct {
	mu   sync.Mutex
	n    int64
	msgs []string
}

func (f *failLog) addf(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n++; len(f.msgs) < 5 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

// result is what one run produced.
type result struct {
	attempted, failed int64
	metrics           map[string]float64
	failures          []string
}

// exact names the metrics that are results of the modelled design: for a
// fixed seed they repeat bit for bit, whatever the host does.
var exact = []string{"sim_pkt_latency_cycles", "compression_ratio", "data_quality"}

// namedWorkload is one named set of inputs.
type namedWorkload struct {
	name string
	// threads is the most client goroutines, connections or simulation
	// jobs the workload drives at once; the environment guard refuses it
	// on a box with fewer CPUs.
	threads int
	run     func(o *runOpts) (*result, error)
}

var workloads = []namedWorkload{
	{"wire_lockstep", 1, func(o *runOpts) (*result, error) { return runWire(o, "wire_lockstep", wireShape{conns: 1, depth: 1}) }},
	{"wire_pipelined", 2, func(o *runOpts) (*result, error) { return runWire(o, "wire_pipelined", wireShape{conns: 2, depth: 32}) }},
	{"wire_mixed_qos", 2, func(o *runOpts) (*result, error) {
		return runWire(o, "wire_mixed_qos", wireShape{conns: 2, depth: 32, mixed: true})
	}},
	{"codec_fp", 1, func(o *runOpts) (*result, error) { return runCodec(o, "codec_fp", fpSchemes) }},
	{"codec_di", 1, func(o *runOpts) (*result, error) { return runCodec(o, "codec_di", diSchemes) }},
	{"sim_fig9", simJobs, func(o *runOpts) (*result, error) { return runSim(o, "sim_fig9", fig9Grid) }},
	{"sim_saturation", simJobs, func(o *runOpts) (*result, error) { return runSim(o, "sim_saturation", saturationGrid) }},
}

func findWorkload(name string) *namedWorkload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// environment is recorded with every report: host-speed numbers mean
// nothing without it.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Transport  string `json:"transport"`
}

func captureEnv() environment {
	e := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Transport:  "host loopback (127.0.0.1), not a real link",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// runOne runs one workload in one mode and holds its output to the
// contract: the environment guard, every declared metric present, none
// undeclared, failures counted.
func runOne(w *namedWorkload, o *runOpts) (*result, error) {
	if cpus := runtime.NumCPU(); w.threads > cpus && !o.quick {
		return nil, fmt.Errorf("workload %s drives %d threads but the box has %d CPUs: its numbers would measure scheduling, not the program", w.name, w.threads, cpus)
	}
	res, err := w.run(o)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.name, err)
	}
	declared := o.spec.specs(o.traced)
	if len(res.metrics) != len(declared) {
		return nil, fmt.Errorf("workload %s emitted %d metrics, BENCHMARK.json declares %d", w.name, len(res.metrics), len(declared))
	}
	for _, m := range declared {
		if _, ok := res.metrics[m.Name]; !ok {
			return nil, fmt.Errorf("workload %s did not emit declared metric %s", w.name, m.Name)
		}
	}
	if res.attempted < 1 {
		return nil, fmt.Errorf("workload %s attempted nothing", w.name)
	}
	return res, nil
}

// report prints a run's metrics, one per line with its unit.
func report(out io.Writer, w *namedWorkload, o *runOpts, res *result) {
	for _, m := range o.spec.specs(o.traced) {
		fmt.Fprintf(out, "%-16s %-32s %16.6g %s\n", w.name, m.Name, res.metrics[m.Name], m.Unit)
	}
	fmt.Fprintf(out, "%-16s %-32s %16d of %d attempted\n", w.name, "failed", res.failed, res.attempted)
	for _, msg := range res.failures {
		fmt.Fprintf(out, "%-16s FAILED: %s\n", w.name, msg)
	}
}

// resultLine is the driver-facing last line of a single run.
func resultLine(o *runOpts, res *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]mv{}}
	for _, m := range o.spec.specs(o.traced) {
		line.Metrics[m.Name] = mv{Value: res.metrics[m.Name], Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // a NaN or Inf metric is a bug in this program
	}
	return string(b)
}

// suite runs every workload, timed then traced, and returns the timed
// results by workload. ok is false when any run failed its contract.
func suite(out io.Writer, base runOpts) (timed map[string]*result, ok bool, err error) {
	timed, ok = map[string]*result{}, true
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			o := base
			o.traced = traced
			res, err := runOne(w, &o)
			if err != nil {
				return nil, false, err
			}
			report(out, w, &o, res)
			if res.failed > 0 {
				ok = false
			}
			if !traced {
				timed[w.name] = res
			}
		}
	}
	return timed, ok, nil
}

// selfcheck runs the suite twice on the same code and holds the two sets
// to the bounds of BENCHMARK.json: a metric that cannot pass A/A cannot
// judge a change. The cure for a failing metric is a longer repetition,
// not a wider bound.
func selfcheck(out io.Writer, base runOpts) (bool, error) {
	a, okA, err := suite(out, base)
	if err != nil {
		return false, err
	}
	b, okB, err := suite(out, base)
	if err != nil {
		return false, err
	}
	ok := okA && okB
	fmt.Fprintf(out, "\n%-16s %-26s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "spread", "bound")
	for _, w := range workloads {
		for _, m := range base.spec.EndToEnd {
			va, vb := a[w.name].metrics[m.Name], b[w.name].metrics[m.Name]
			spread := 0.0
			if va != vb {
				spread = (va - vb) / ((va + vb) / 2)
				if spread < 0 {
					spread = -spread
				}
			}
			bound, verdict := m.Bound, ""
			if slices.Contains(exact, m.Name) {
				bound = 0 // same seed, same code: the modelled results may not move at all
			}
			if spread > bound {
				ok, verdict = false, "  EXCEEDS BOUND"
			}
			fmt.Fprintf(out, "%-16s %-26s %14.6g %14.6g %8.3f%% %6.1f%%%s\n", w.name, m.Name, va, vb, 100*spread, 100*bound, verdict)
		}
	}
	return ok, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload and print its JSON result as the last line")
	seed := fs.Uint64("seed", 1, "input seed: drives every workload.Source and sim.Rand")
	seconds := fs.Float64("seconds", 0, "measuring window of one run in seconds (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	self := fs.Bool("selfcheck", false, "run the suite twice and fail if any end-to-end metric differs by more than its bound")
	quick := fs.Bool("quick", false, "smoke test: tiny pools and windows, numbers not comparable")
	update := fs.Bool("update-golden", false, "rewrite benchmark/golden/*.json from this run (seed 1 only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	base := runOpts{seed: *seed, seconds: *seconds, quick: *quick, updateGolden: *update, spec: spec, log: stdout}
	if base.seconds <= 0 {
		base.seconds = float64(spec.RunSeconds)
	}
	env, _ := json.Marshal(captureEnv())
	fmt.Fprintf(stdout, "env %s\n", env)

	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
			return 2
		}
		base.traced = *trace == 1
		res, err := runOne(w, &base)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		report(stdout, w, &base, res)
		fmt.Fprintln(stdout, resultLine(&base, res))
		if res.failed > 0 {
			return 1
		}
		return 0
	}

	var ok bool
	if *self {
		ok, err = selfcheck(stdout, base)
	} else {
		_, ok, err = suite(stdout, base)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !ok {
		fmt.Fprintln(stdout, "FAIL: a contract was violated, see above")
		return 1
	}
	fmt.Fprintln(stdout, "ok")
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return names
}
