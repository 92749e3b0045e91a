// Command approxnoc-bench regenerates the tables and figures of the
// APPROX-NoC paper's evaluation (§5). Each experiment id maps to one
// artifact; see DESIGN.md's experiment index.
//
// Usage:
//
//	approxnoc-bench -exp fig9 [-cycles 100000] [-threshold 10] [-ratio 0.75]
//	approxnoc-bench -exp all
//	approxnoc-bench -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"

	"approxnoc/internal/compress"
	"approxnoc/internal/experiments"
	"approxnoc/internal/serve"
)

// experimentOrder drives `-exp all` and must list each artifact exactly
// once: fig10a/fig10b render the same table, so only the combined fig10
// id appears here (both aliases still resolve via -exp).
var experimentOrder = []string{
	"table1", "fig9", "fig10", "fig11", "fig12",
	"fig13", "fig14", "fig15", "fig16", "fig17", "area",
	"ablation-overlap", "ablation-pmt", "ablation-window", "ablation-adaptive",
	"extension-bdi", "ablation-matchunits", "ablation-router",
	"gateway",
}

// fixedRuns are the ids whose output no -seed or -cycles changes: table1
// and area describe the configuration, fig16 and fig17 run the §5.4
// kernels on their own fixed seeds and lengths, and gateway is a
// wall-clock loadgen grid.
var fixedRuns = []string{"table1", "fig16", "fig17", "area", "gateway"}

// ignoredFlagNotes returns one note per id in ids that ignores a flag
// set on the command line (set holds the names flag.Visit saw), naming
// the id and the flags.
func ignoredFlagNotes(ids []string, set map[string]bool) []string {
	var flags []string
	for _, name := range []string{"seed", "cycles"} {
		if set[name] {
			flags = append(flags, "-"+name)
		}
	}
	if len(flags) == 0 {
		return nil
	}
	var notes []string
	for _, id := range ids {
		if slices.Contains(fixedRuns, id) {
			notes = append(notes, fmt.Sprintf("approxnoc-bench: %s ignores %s", id, strings.Join(flags, " and ")))
		}
	}
	return notes
}

func main() {
	os.Exit(realMain())
}

// realMain carries the exit code back through a return so the deferred
// profile writers (cpuprofile/memprofile) flush before the process exits.
func realMain() int {
	exp := flag.String("exp", "", "experiment id (see -list), or 'all'")
	list := flag.Bool("list", false, "list experiment ids")
	ignored := " (" + strings.Join(fixedRuns, ", ") + " ignore it)"
	cycles := flag.Int("cycles", 50000, "injection cycles per trace replay"+ignored)
	threshold := flag.Int("threshold", 10, "VAXX error threshold (%)")
	ratio := flag.Float64("ratio", 0.75, "approximable data packet ratio")
	seed := flag.Uint64("seed", 1, "simulation seed"+ignored)
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "parallel trace replays (results are identical for any value)")
	asJSON := flag.Bool("json", false, "emit rows as JSON instead of tables")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experimentOrder, "\n"))
		return 0
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "approxnoc-bench: -exp required (try -list)")
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "approxnoc-bench: cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "approxnoc-bench: cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "approxnoc-bench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "approxnoc-bench: memprofile: %v\n", err)
			}
		}()
	}

	cfg := experiments.Default()
	cfg.Cycles = *cycles
	cfg.ErrorThreshold = *threshold
	cfg.ApproxRatio = *ratio
	cfg.Seed = *seed
	cfg.Jobs = *jobs

	ids := []string{*exp}
	if *exp == "all" {
		ids = experimentOrder
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, note := range ignoredFlagNotes(ids, set) {
		fmt.Fprintln(os.Stderr, note)
	}
	grid := sync.OnceValues(func() (experiments.Grid, error) { return experiments.RunGrid(cfg) })
	for _, id := range ids {
		rows, out, err := run(id, cfg, grid)
		if err != nil {
			fmt.Fprintf(os.Stderr, "approxnoc-bench: %s: %v\n", id, err)
			return 1
		}
		if *asJSON {
			enc, err := json.MarshalIndent(map[string]any{"experiment": id, "rows": rows}, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "approxnoc-bench: %s: %v\n", id, err)
				return 1
			}
			fmt.Println(string(enc))
			continue
		}
		fmt.Println(out)
	}
	return 0
}

// run resolves an experiment id and executes it, returning the rows (for
// -json) and the rendered table. grid returns the replays Figs. 9, 10, 11
// and 15 are views of; realMain wraps experiments.RunGrid in
// sync.OnceValues, so however many of the four ids one process renders,
// the grid is replayed once.
func run(id string, cfg experiments.Config, grid func() (experiments.Grid, error)) (any, string, error) {
	exec, err := resolve(id, cfg, grid)
	if err != nil {
		return nil, "", err
	}
	return exec()
}

// rendered pairs a driver's rows with their table.
func rendered[T any](rows T, err error, format func(T) string) (any, string, error) {
	if err != nil {
		return nil, "", err
	}
	return rows, format(rows), nil
}

// resolve maps an experiment id to the call that produces it, without
// making the call: an id with no case here fails before anything runs.
func resolve(id string, cfg experiments.Config, grid func() (experiments.Grid, error)) (func() (any, string, error), error) {
	switch id {
	case "table1":
		return func() (any, string, error) {
			t := experiments.Table1(cfg)
			return t, t, nil
		}, nil
	case "fig9":
		return func() (any, string, error) {
			g, err := grid()
			return rendered(g.Fig9(), err, experiments.FormatFig9)
		}, nil
	case "fig10a", "fig10b", "fig10":
		return func() (any, string, error) {
			g, err := grid()
			return rendered(g.Fig10(), err, experiments.FormatFig10)
		}, nil
	case "fig11":
		return func() (any, string, error) {
			g, err := grid()
			return rendered(g.Fig11(), err, experiments.FormatFig11)
		}, nil
	case "fig12":
		return func() (any, string, error) {
			pts, err := experiments.Fig12(cfg, nil, nil)
			return rendered(pts, err, experiments.FormatFig12)
		}, nil
	case "fig13":
		return func() (any, string, error) {
			rows, err := experiments.Fig13(cfg, nil)
			return rendered(rows, err, func(r []experiments.Fig13Row) string { return experiments.FormatFig13(r, nil) })
		}, nil
	case "fig14":
		return func() (any, string, error) {
			rows, err := experiments.Fig14(cfg, nil)
			return rendered(rows, err, func(r []experiments.Fig14Row) string { return experiments.FormatFig14(r, nil) })
		}, nil
	case "fig15":
		return func() (any, string, error) {
			g, err := grid()
			return rendered(g.Fig15(), err, experiments.FormatFig15)
		}, nil
	case "fig16":
		return func() (any, string, error) {
			rows, err := experiments.Fig16(cfg.Runner(), nil)
			return rendered(rows, err, func(r []experiments.Fig16Row) string { return experiments.FormatFig16(r, nil) })
		}, nil
	case "fig17":
		return func() (any, string, error) {
			r, err := experiments.Fig17(compress.FPVaxx, cfg.ErrorThreshold)
			return rendered(r, err, experiments.FormatFig17)
		}, nil
	case "area":
		return func() (any, string, error) {
			a := experiments.AreaReport()
			return a, a, nil
		}, nil
	case "ablation-overlap":
		return func() (any, string, error) {
			rows, err := experiments.AblationOverlap(cfg, nil)
			return rendered(rows, err, experiments.FormatAblationOverlap)
		}, nil
	case "ablation-pmt":
		return func() (any, string, error) {
			rows, err := experiments.AblationPMT(cfg, nil, nil)
			return rendered(rows, err, experiments.FormatAblationPMT)
		}, nil
	case "ablation-router":
		return func() (any, string, error) {
			rows, err := experiments.AblationRouter(cfg, nil)
			return rendered(rows, err, experiments.FormatAblationRouter)
		}, nil
	case "ablation-matchunits":
		return func() (any, string, error) {
			rows, err := experiments.AblationMatchUnits(cfg, nil, nil)
			return rendered(rows, err, experiments.FormatAblationMatchUnits)
		}, nil
	case "extension-bdi":
		return func() (any, string, error) {
			rows, err := experiments.ExtensionBDI(cfg, nil)
			return rendered(rows, err, experiments.FormatExtensionBDI)
		}, nil
	case "ablation-adaptive":
		return func() (any, string, error) {
			rows, err := experiments.AblationAdaptive(cfg, nil)
			return rendered(rows, err, experiments.FormatAblationAdaptive)
		}, nil
	case "ablation-window":
		return func() (any, string, error) {
			rows, err := experiments.AblationWindow(cfg, nil)
			return rendered(rows, err, experiments.FormatAblationWindow)
		}, nil
	case "gateway":
		return func() (any, string, error) {
			rows, err := gatewayGrid(cfg)
			return rendered(rows, err, formatGatewayGrid)
		}, nil
	default:
		return nil, fmt.Errorf("unknown experiment %q", id)
	}
}

// gatewayRow is one cell of the wire-path throughput grid: a live
// loopback gateway driven over TCP at a fixed connection count,
// pipeline depth, and payload size. Unlike the simulation figures these
// are wall-clock measurements — run-to-run variance is expected and the
// rows are not golden-pinned.
type gatewayRow struct {
	Conns           int     `json:"conns"`
	Depth           int     `json:"depth"`
	Words           int     `json:"words"`
	RecordsPerSec   float64 `json:"records_per_sec"`
	PayloadMBPerSec float64 `json:"payload_mb_per_sec"`
	FramesPerBatch  float64 `json:"frames_per_batch"`
	Retries         int     `json:"retries"`
}

// gatewayGridRecords is the per-cell record count: large enough that
// setup and warmup are amortized away, small enough that the full grid
// stays a few seconds of wall clock.
const gatewayGridRecords = 20000

// gatewayGrid measures loopback wire throughput across connections x
// pipeline-depth x payload-size. The depth=1 rows are the lock-step
// (pre-pipelining) baseline the deeper rows are read against.
func gatewayGrid(cfg experiments.Config) ([]gatewayRow, error) {
	scfg := serve.Config{
		Nodes: 16, Scheme: compress.Baseline, ThresholdPct: cfg.ErrorThreshold,
		Shards: 4, QueueDepth: 4096,
	}
	var rows []gatewayRow
	for _, conns := range []int{1, 4} {
		for _, depth := range []int{1, 8, 64} {
			for _, words := range []int{16, 64} {
				res, err := serve.RunLoopback(scfg, serve.Loadgen{
					Conns: conns, Depth: depth, Words: words, Records: gatewayGridRecords,
				})
				if err != nil {
					return nil, fmt.Errorf("gateway grid conns=%d depth=%d words=%d: %w", conns, depth, words, err)
				}
				fpb := 0.0
				if res.Wire.WriteBatches > 0 {
					fpb = float64(res.Wire.WriteFrames) / float64(res.Wire.WriteBatches)
				}
				rows = append(rows, gatewayRow{
					Conns: conns, Depth: depth, Words: words,
					RecordsPerSec:   res.RecordsPerSec,
					PayloadMBPerSec: res.PayloadMBPerSec,
					FramesPerBatch:  fpb,
					Retries:         res.Retries,
				})
			}
		}
	}
	return rows, nil
}

func formatGatewayGrid(rows []gatewayRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Gateway wire path — loopback throughput (%d records per cell)\n", gatewayGridRecords)
	fmt.Fprintf(&sb, "%6s %6s %6s %14s %12s %13s %8s\n",
		"conns", "depth", "words", "records/sec", "payload MB/s", "frames/batch", "retries")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%6d %6d %6d %14.0f %12.2f %13.1f %8d\n",
			r.Conns, r.Depth, r.Words, r.RecordsPerSec, r.PayloadMBPerSec, r.FramesPerBatch, r.Retries)
	}
	return sb.String()
}
