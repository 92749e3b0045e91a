// Command approxnoc-serve runs the approximation/compression gateway as
// a network service: cache blocks stream in over a length-prefixed binary
// TCP protocol, pass through the selected scheme's codec pair, and the
// (possibly approximated) blocks stream back with compression accounting.
//
// Serve a DI-VAXX gateway at a 5% error threshold:
//
//	approxnoc-serve -scheme DI-VAXX -threshold 5 -addr :9444
//
// Self-test mode replays a benchmark workload trace through the gateway
// with concurrent TCP clients, verifies threshold-0 results bit-for-bit
// against the serial channel path, and prints the gateway metrics:
//
//	approxnoc-serve -selftest -scheme DI-VAXX -threshold 0 -benchmark ssca2
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"approxnoc/internal/compress"
	"approxnoc/internal/obs"
	"approxnoc/internal/qos"
	"approxnoc/internal/serve"
	"approxnoc/internal/sim"
	"approxnoc/internal/traffic"
	"approxnoc/internal/value"
	"approxnoc/internal/workload"
)

func main() {
	addr := flag.String("addr", ":9444", "TCP listen address")
	schemeName := flag.String("scheme", "DI-VAXX", "Baseline | DI-COMP | DI-VAXX | FP-COMP | FP-VAXX | BD-COMP | BD-VAXX")
	threshold := flag.Int("threshold", 10, "VAXX error threshold (%)")
	nodes := flag.Int("nodes", 32, "logical endpoints the gateway serves")
	shards := flag.Int("shards", 0, "codec pool shards (0 = GOMAXPROCS; 1 = a single global table set)")
	queue := flag.Int("queue", 0, "per-shard queue depth (0 = default)")
	batch := flag.Int("batch", 0, "max coalesced batch per dispatch (0 = default)")
	adaptive := flag.Bool("adaptive", false, "wrap codecs with the compression on/off controller")
	selftest := flag.Bool("selftest", false, "replay a workload through the gateway and exit")
	loadgen := flag.Bool("loadgen", false, "measure loopback wire-path throughput and exit")
	conns := flag.Int("conns", 1, "TCP connections for -loadgen")
	depth := flag.Int("depth", 8, "pipelined requests in flight per connection for -loadgen")
	words := flag.Int("words", 16, "block payload size in 32-bit words for -loadgen")
	benchmark := flag.String("benchmark", "ssca2", "benchmark trace for -selftest")
	records := flag.Int("records", 2000, "trace records for -selftest; total requests for -loadgen, summed over all connections (split evenly across -conns, not per connection)")
	clients := flag.Int("clients", 16, "concurrent TCP clients for -selftest")
	trace := flag.String("trace", "", "replay an ANTR trace file instead of a synthetic workload (-selftest)")
	seed := flag.Uint64("seed", 1, "seed for the synthetic workload (-selftest)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /trace and pprof on this address")
	obsDemo := flag.Bool("obs-demo", false, "boot a gateway with the debug endpoint, scrape /metrics and /trace, verify the scrape parses, and exit")
	qosOn := flag.Bool("qos", false, "enable the load-driven QoS threshold controller (degrade quality before refusing work; needs FP-VAXX)")
	qosMax := flag.Int("qos-max", 0, "QoS threshold cap in percent (0 = default)")
	qosInterval := flag.Duration("qos-interval", 100*time.Millisecond, "QoS control-loop sampling period")
	budgets := flag.String("budgets", "", "per-tenant error budgets, tenant=capacity[:refillPerSec],... (enables budget enforcement)")
	tenant := flag.String("tenant", "", "tenant stamped on -loadgen requests, spending that tenant's error budget")
	flag.Parse()

	cfg := serve.Config{
		Nodes: *nodes, Scheme: compress.Baseline, ThresholdPct: *threshold,
		Shards: *shards, QueueDepth: *queue, MaxBatch: *batch,
		Adaptive: *adaptive,
	}
	scheme, err := compress.ParseScheme(*schemeName)
	if err == nil {
		cfg.QoS, err = qos.ParseFlags(*qosOn, *qosMax, *threshold, *qosInterval, *budgets)
	}
	if err == nil {
		cfg.Scheme = scheme
		switch {
		case *obsDemo:
			err = runObsDemo(cfg, *benchmark, *records, *seed, *debugAddr)
		case *selftest:
			err = runSelftest(cfg, *benchmark, *trace, *records, *clients, *seed)
		case *loadgen:
			err = runLoadgen(cfg, serve.Loadgen{Conns: *conns, Depth: *depth, Words: *words, Records: *records, Tenant: *tenant})
		default:
			err = runServer(cfg, *addr, *debugAddr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "approxnoc-serve:", err)
		os.Exit(1)
	}
}

// runServer serves the gateway until the listener fails (e.g. the
// process is killed). A non-empty debugAddr additionally serves the obs
// debug endpoints next to the TCP protocol port.
func runServer(cfg serve.Config, addr, debugAddr string) error {
	var reg *obs.Registry
	var tracer *obs.Tracer
	if debugAddr != "" {
		reg = obs.NewRegistry()
		tracer = obs.NewTracer(16, 4096)
		cfg.Tracer = tracer
	}
	gw, err := serve.New(cfg)
	if err != nil {
		return err
	}
	defer gw.Close()
	srv := serve.NewServer(gw)
	if reg != nil {
		gw.RegisterMetrics(reg)
		srv.RegisterMetrics(reg)
		tracer.RegisterMetrics(reg)
		dbg, err := obs.StartDebugServer(debugAddr, reg, tracer)
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Printf("debug endpoints on http://%s/ (/metrics /trace /debug/pprof)\n", dbg.Addr())
	}
	eff := gw.Config()
	fmt.Printf("serving %v gateway: %d nodes, %d shards, queue %d, batch %d, threshold %d%%\n",
		eff.Scheme, eff.Nodes, eff.Shards, eff.QueueDepth, eff.MaxBatch, eff.ThresholdPct)
	if ctl := gw.QoSController(); ctl != nil {
		c := ctl.Config()
		fmt.Printf("qos                 threshold %d..%d%% step %d, watermarks %.2f/%.2f, %d budgeted tenants\n",
			c.BaselinePct, c.MaxPct, c.StepPct, c.LowerAt, c.RaiseAt, len(gw.Budgets()))
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("listening on %s\n", ln.Addr())
	return srv.Serve(ln)
}

// runLoadgen measures loopback wire-path throughput: a gateway served on
// an ephemeral port, lg.Conns TCP connections each keeping lg.Depth
// requests in flight, lg.Records round trips total (split across the
// connections).
func runLoadgen(cfg serve.Config, lg serve.Loadgen) error {
	switch {
	case lg.Conns < 1:
		return fmt.Errorf("-conns must be >= 1, got %d", lg.Conns)
	case lg.Depth < 1:
		return fmt.Errorf("-depth must be >= 1, got %d", lg.Depth)
	case lg.Words < 1:
		return fmt.Errorf("-words must be >= 1, got %d", lg.Words)
	case lg.Records < 1:
		return fmt.Errorf("-records must be >= 1, got %d", lg.Records)
	}
	res, err := serve.RunLoopback(cfg, lg)
	if err != nil {
		return err
	}
	framesPerBatch := 0.0
	if res.Wire.WriteBatches > 0 {
		framesPerBatch = float64(res.Wire.WriteFrames) / float64(res.Wire.WriteBatches)
	}
	fmt.Printf("loadgen             %v gateway, %d conns x depth %d, %d-word blocks\n",
		cfg.Scheme, max(lg.Conns, 1), max(lg.Depth, 1), max(lg.Words, 1))
	fmt.Printf("throughput          %.0f records/sec (%.2f MB/s payload), %d records in %v\n",
		res.RecordsPerSec, res.PayloadMBPerSec, res.Records, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("wire                %d read frames, %d write batches (%.1f frames/batch), %d bytes out, %d overload retries\n",
		res.Wire.ReadFrames, res.Wire.WriteBatches, framesPerBatch, res.Wire.WriteBytes, res.Retries)
	if res.BudgetRefused > 0 {
		fmt.Printf("qos                 %d records refused with ErrBudgetExhausted\n", res.BudgetRefused)
	}
	return nil
}

// selftestRecords builds the data records to replay: either a recorded
// ANTR trace or a synthetic benchmark workload.
func selftestRecords(cfg serve.Config, benchmark, traceFile string, records int, seed uint64) ([]workload.TraceRecord, error) {
	if traceFile != "" {
		f, err := os.Open(traceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		recs, err := traffic.ReadTrace(f)
		if err != nil {
			return nil, err
		}
		for i, r := range recs {
			if r.Src >= cfg.Nodes || r.Dst >= cfg.Nodes {
				return nil, fmt.Errorf("trace record %d addresses node pair (%d,%d) outside the %d-node gateway",
					i, r.Src, r.Dst, cfg.Nodes)
			}
		}
		return recs, nil
	}
	m, err := workload.ByName(benchmark)
	if err != nil {
		return nil, err
	}
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("selftest needs at least 2 nodes, got %d", cfg.Nodes)
	}
	src := m.NewSource(seed, 0.75)
	rng := sim.NewRand(seed + 1)
	recs := make([]workload.TraceRecord, records)
	for i := range recs {
		from := rng.Intn(cfg.Nodes)
		recs[i] = workload.TraceRecord{
			Src: from, Dst: (from + 1 + rng.Intn(cfg.Nodes-1)) % cfg.Nodes,
			IsData: true, Block: src.NextBlock(),
		}
	}
	return recs, nil
}

// runSelftest replays the workload through a loopback TCP server with
// concurrent clients. At threshold 0 every delivered block is verified
// bit-for-bit against the serial fabric path; at any threshold,
// non-approximable blocks must come back untouched.
func runSelftest(cfg serve.Config, benchmark, traceFile string, records, clients int, seed uint64) error {
	if clients <= 0 {
		return fmt.Errorf("selftest needs at least 1 client, got %d", clients)
	}
	recs, err := selftestRecords(cfg, benchmark, traceFile, records, seed)
	if err != nil {
		return err
	}
	var data []workload.TraceRecord
	for _, r := range recs {
		if r.IsData {
			data = append(data, r)
		}
	}
	if len(data) == 0 {
		return fmt.Errorf("workload has no data records")
	}

	// The serial reference: the same scheme through one codec fabric,
	// single-threaded. At threshold 0 the gateway must reproduce it
	// bit-for-bit; above 0 the sharded PMT state may legitimately make
	// different (still threshold-bounded) approximation choices.
	factory, err := compress.FactoryFor(cfg.Scheme, cfg.Nodes, cfg.ThresholdPct)
	if err != nil {
		return err
	}
	serial := compress.NewFabric(cfg.Nodes, factory)
	want := make([]*value.Block, len(data))
	for i, r := range data {
		want[i] = serial.Transfer(r.Src, r.Dst, r.Block.Clone())
	}
	thr := 0.0
	if cfg.Scheme.IsVaxx() {
		thr = float64(cfg.ThresholdPct) / 100
	}

	// Lock-step clients (depth 1): each waits for its reply the way a
	// tile's NI does. Client c replays records c, c+clients, ...; the tag
	// carries the record index to the check.
	rig, err := serve.NewLoadgenRig(cfg, serve.Loadgen{Conns: clients})
	if err != nil {
		return err
	}
	// honoured reports whether one delivered block keeps the contract.
	honoured := func(req serve.Request, res serve.Result) bool {
		if thr == 0 && !res.Block.Equal(want[req.Tag]) {
			return false // diverges from the serial path
		}
		if !req.Block.Approximable && !res.Block.Equal(req.Block) {
			return false // non-approximable block altered
		}
		for w := range req.Block.Words {
			if value.RelError(req.Block.Words[w], res.Block.Words[w], req.Block.DType) > thr+1e-9 {
				return false // word error exceeds threshold
			}
		}
		return true
	}
	var bad atomic.Int64
	_, err = rig.Replay(len(data),
		func(conn, seq int) serve.Request {
			i := conn + seq*clients
			return serve.Request{
				Src: data[i].Src, Dst: data[i].Dst, Block: data[i].Block,
				ThresholdPct: serve.DefaultThreshold, Tag: uint64(i),
			}
		},
		func(req serve.Request, res serve.Result) {
			if !honoured(req, res) {
				bad.Add(1)
			}
		})
	gw := rig.Gateway()
	m, cs := gw.Metrics(), gw.CodecStats()
	if cerr := rig.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	fmt.Printf("selftest            %v, %d nodes, %d shards, threshold %d%%\n",
		gw.Config().Scheme, gw.Config().Nodes, gw.Config().Shards, gw.Config().ThresholdPct)
	fmt.Printf("replayed            %d data records via %d TCP clients\n", len(data), clients)
	fmt.Println(m)
	fmt.Printf("codec               ratio %.3f  encoded %.3f (approx %.3f)  quality %.4f\n",
		cs.CompressionRatio(), cs.EncodedWordFraction(), cs.ApproxWordFraction(), cs.DataQuality())
	if n := bad.Load(); n > 0 {
		return fmt.Errorf("%d of %d blocks failed verification", n, len(data))
	}
	if thr == 0 {
		fmt.Println("verify              gateway results bit-identical to the serial fabric path")
	} else {
		fmt.Printf("verify              every word within the %d%% error threshold\n", cfg.ThresholdPct)
	}
	return nil
}
