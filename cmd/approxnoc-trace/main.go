// Command approxnoc-trace generates benchmark communication traces (the
// gem5-trace stand-in) and inspects existing trace files.
//
// Usage:
//
//	approxnoc-trace gen -benchmark ssca2 -packets 10000 -tiles 32 -out ssca2.trace
//	approxnoc-trace info -in ssca2.trace
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"approxnoc/internal/sim"
	"approxnoc/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = genCmd(os.Args[2:])
	case "info":
		err = infoCmd(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "approxnoc-trace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: approxnoc-trace gen|info [flags]")
	os.Exit(2)
}

func genCmd(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	benchmark := fs.String("benchmark", "blackscholes", "benchmark model")
	packets := fs.Int("packets", 10000, "packet records to emit")
	tiles := fs.Int("tiles", 32, "tile count for src/dst assignment")
	approxRatio := fs.Float64("approx-ratio", 0.75, "approximable data fraction")
	seed := fs.Uint64("seed", 1, "seed")
	out := fs.String("out", "", "output file (default stdout)")
	fs.Parse(args)

	model, err := workload.ByName(*benchmark)
	if err != nil {
		return err
	}
	// Tile IDs are 16-bit fields in the trace format.
	if *tiles < 2 || *tiles > 1<<16 || *packets < 1 || !(*approxRatio >= 0 && *approxRatio <= 1) {
		return fmt.Errorf("gen: need -tiles in [2,65536] (distinct 16-bit src/dst), -packets >= 1 and -approx-ratio in [0,1] (got %d, %d, %g)", *tiles, *packets, *approxRatio)
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	tw, err := workload.NewTraceWriter(w)
	if err != nil {
		return err
	}
	src := model.NewSource(*seed, *approxRatio)
	r := sim.NewRand(*seed ^ 0xDEADBEEF)
	for i := 0; i < *packets; i++ {
		s := r.Intn(*tiles)
		d := r.Intn(*tiles)
		if d == s {
			d = (d + 1) % *tiles
		}
		rec := workload.TraceRecord{Src: s, Dst: d}
		if src.NextIsData() {
			rec.IsData = true
			rec.Block = src.NextBlock()
		}
		if err := tw.Write(rec); err != nil {
			return err
		}
	}
	return tw.Flush()
}

func infoCmd(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "", "trace file")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("info: -in required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := workload.NewTraceReader(f)
	if err != nil {
		return err
	}
	var total, data, approximable, floatBlocks int
	for {
		rec, err := tr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		total++
		if rec.IsData {
			data++
			if rec.Block.Approximable {
				approximable++
			}
			if rec.Block.DType.String() == "float32" {
				floatBlocks++
			}
		}
	}
	fmt.Printf("records        %d\n", total)
	fmt.Printf("data packets   %d (%.1f%%)\n", data, pct(data, total))
	fmt.Printf("approximable   %d (%.1f%% of data)\n", approximable, pct(approximable, data))
	fmt.Printf("float blocks   %d (%.1f%% of data)\n", floatBlocks, pct(floatBlocks, data))
	return nil
}

// pct is a as a percentage of b; a <= b, so b == 0 reads as 0%.
func pct(a, b int) float64 { return 100 * float64(a) / math.Max(float64(b), 1) }
