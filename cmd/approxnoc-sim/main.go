// Command approxnoc-sim runs a single NoC simulation with a chosen
// topology, scheme, traffic pattern and injection rate, and prints the
// resulting latency, throughput, compression and power statistics.
//
// Usage:
//
//	approxnoc-sim -scheme DI-VAXX -pattern uniform-random -rate 0.2 \
//	              -benchmark ssca2 -cycles 100000
package main

import (
	"flag"
	"fmt"
	"os"

	"approxnoc/internal/compress"
	"approxnoc/internal/noc"
	"approxnoc/internal/obs"
	"approxnoc/internal/power"
	"approxnoc/internal/topology"
	"approxnoc/internal/traffic"
	"approxnoc/internal/workload"
)

func main() {
	width := flag.Int("width", 4, "mesh width")
	height := flag.Int("height", 4, "mesh height")
	conc := flag.Int("concentration", 2, "tiles per router")
	schemeName := flag.String("scheme", "DI-VAXX", "Baseline | DI-COMP | DI-VAXX | FP-COMP | FP-VAXX | BD-COMP | BD-VAXX")
	threshold := flag.Int("threshold", 10, "VAXX error threshold (%)")
	mode := flag.String("mode", "synthetic", "synthetic | reqreply | replay")
	patternName := flag.String("pattern", "uniform-random", "uniform-random | transpose | bit-complement | hotspot")
	rate := flag.Float64("rate", 0.1, "offered load (flits/cycle/tile for synthetic; requests/cycle/tile for reqreply; packets/cycle aggregate for replay)")
	dataRatio := flag.Float64("data-ratio", 0.25, "data packet fraction (synthetic mode)")
	benchmark := flag.String("benchmark", "blackscholes", "benchmark value trace")
	approxRatio := flag.Float64("approx-ratio", 0.75, "approximable data packet fraction")
	traceFile := flag.String("trace", "", "trace file to replay (replay mode)")
	cycles := flag.Int("cycles", 100000, "injection cycles")
	seed := flag.Uint64("seed", 1, "seed")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /trace and pprof on this address while simulating")
	flag.Parse()

	if err := run(*width, *height, *conc, *schemeName, *threshold, *mode, *patternName,
		*rate, *dataRatio, *benchmark, *approxRatio, *traceFile, *cycles, *seed, *debugAddr); err != nil {
		fmt.Fprintln(os.Stderr, "approxnoc-sim:", err)
		os.Exit(1)
	}
}

func run(width, height, conc int, schemeName string, threshold int, mode, patternName string,
	rate, dataRatio float64, benchmark string, approxRatio float64, traceFile string, cycles int, seed uint64,
	debugAddr string) error {
	if cycles < 1 || !(approxRatio >= 0 && approxRatio <= 1) {
		return fmt.Errorf("need -cycles >= 1 and -approx-ratio in [0,1] (got %d, %g)", cycles, approxRatio)
	}
	scheme, err := compress.ParseScheme(schemeName)
	if err != nil {
		return err
	}
	pattern, err := traffic.ParsePattern(patternName)
	if err != nil {
		return err
	}
	model, err := workload.ByName(benchmark)
	if err != nil {
		return err
	}
	topo, err := topology.NewCMesh(width, height, conc)
	if err != nil {
		return err
	}
	factory, err := compress.FactoryFor(scheme, topo.Tiles(), threshold)
	if err != nil {
		return err
	}
	net, err := noc.New(topo, noc.DefaultConfig(), factory)
	if err != nil {
		return err
	}
	var tracer *obs.Tracer
	if debugAddr != "" {
		reg := obs.NewRegistry()
		tracer = obs.NewTracer(topo.Routers(), 4096)
		net.EnableObs(reg, tracer, 256)
		tracer.RegisterMetrics(reg)
		dbg, err := obs.StartDebugServer(debugAddr, reg, tracer)
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Printf("debug endpoints      http://%s/ (/metrics /trace /debug/pprof)\n", dbg.Addr())
	}
	src := model.NewSource(seed, approxRatio)
	var res traffic.RunResult
	switch mode {
	case "synthetic":
		inj, err := traffic.New(net, traffic.Config{
			Pattern:   pattern,
			FlitRate:  rate,
			DataRatio: dataRatio,
			Source:    src,
			Seed:      seed,
		})
		if err != nil {
			return err
		}
		res = traffic.Run(net, inj, cycles, true)
	case "reqreply":
		rr, err := traffic.NewReqReply(net, rate, src, seed)
		if err != nil {
			return err
		}
		res = traffic.RunReqReply(net, rr, cycles)
	case "replay":
		if traceFile == "" {
			return fmt.Errorf("replay mode needs -trace")
		}
		f, err := os.Open(traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		recs, err := traffic.ReadTrace(f)
		if err != nil {
			return err
		}
		rp, err := traffic.NewReplay(net, recs, rate)
		if err != nil {
			return err
		}
		res = traffic.RunReplay(net, rp, cycles)
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
	net.PublishObs()
	s := res.Stats
	cs := net.CodecStats()

	fmt.Printf("topology            %s, scheme %s, pattern %s\n", topo, scheme, pattern)
	fmt.Printf("offered load        %.3f flits/cycle/tile, data ratio %.2f, benchmark %s\n", rate, dataRatio, benchmark)
	fmt.Printf("packets             sent %d  delivered %d (data %d, control %d, notif %d)\n",
		s.PacketsSent, s.PacketsDelivered, s.DataDelivered, s.ControlDelivered, s.NotifDelivered)
	fmt.Printf("flits               injected %d (data %d)  ejected %d\n",
		s.FlitsInjected, s.DataFlitsInjected, s.FlitsEjected)
	fmt.Printf("latency (cycles)    queue %.2f + net %.2f + decode %.2f = %.2f\n",
		s.AvgQueueLatency(), s.AvgNetLatency(), s.AvgDecodeLatency(), s.AvgPacketLatency())
	fmt.Printf("throughput          %.4f flits/cycle/tile over %d cycles\n", s.Throughput(topo.Tiles()), s.Cycles)
	fmt.Printf("compression         ratio %.3f  encoded %.3f (approx %.3f)  quality %.4f\n",
		cs.CompressionRatio(), cs.EncodedWordFraction(), cs.ApproxWordFraction(), cs.DataQuality())
	fmt.Printf("dynamic power       %.2f mW (45nm model at 2GHz)\n",
		power.Default45nm().DynamicPowerMW(net.Power(), cs, s.Cycles, 2))
	if tracer != nil {
		fmt.Printf("trace               %d events retained, %d dropped, %d evicted\n",
			tracer.Len(), tracer.Dropped(), tracer.Evicted())
	}
	return nil
}
