// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5) at reduced scale, plus microbenchmarks of the core
// mechanisms. Each BenchmarkFigN drives the same code path as
// `approxnoc-bench -exp figN` and reports the figure's headline numbers
// as custom metrics, so `go test -bench .` doubles as a smoke
// reproduction. Increase -benchtime or use the CLI for full-scale runs.
package approxnoc_test

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"approxnoc"
	"approxnoc/internal/apps"
	"approxnoc/internal/compress"
	"approxnoc/internal/experiments"
	"approxnoc/internal/graph"
	"approxnoc/internal/serve"
	"approxnoc/internal/tcam"
	"approxnoc/internal/value"
	"approxnoc/internal/workload"
)

// benchCfg is the reduced-scale experiment configuration for benches.
func benchCfg() experiments.Config {
	cfg := experiments.Default()
	cfg.Cycles = 6000
	return cfg
}

func BenchmarkTable1(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if experiments.Table1(cfg) == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig9 regenerates the latency-breakdown figure on the
// data-intensive benchmark and reports the headline: DI/FP-VAXX latency
// versus baseline on ssca2.
func BenchmarkFig9(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		report := func(bench string, s compress.Scheme, name string) {
			for _, r := range rows {
				if r.Benchmark == bench && r.Scheme == s {
					b.ReportMetric(r.TotalLat, name)
				}
			}
		}
		report("ssca2", compress.Baseline, "ssca2-baseline-cycles")
		report("ssca2", compress.DIVaxx, "ssca2-divaxx-cycles")
		report("ssca2", compress.FPVaxx, "ssca2-fpvaxx-cycles")
		report("AVG", compress.FPVaxx, "avg-fpvaxx-cycles")
	}
}

func BenchmarkFig10(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Benchmark == "GMEAN" {
				switch r.Scheme {
				case compress.FPVaxx:
					b.ReportMetric(r.Ratio, "gmean-fpvaxx-ratio")
					b.ReportMetric(r.ApproxFrac, "gmean-fpvaxx-approxfrac")
				case compress.FPComp:
					b.ReportMetric(r.Ratio, "gmean-fpcomp-ratio")
				}
			}
		}
	}
}

func BenchmarkFig11(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sum, n := 0.0, 0
		for _, r := range rows {
			if r.Scheme == compress.FPVaxx {
				sum += r.NormFlits
				n++
			}
		}
		b.ReportMetric(sum/float64(n), "fpvaxx-norm-dataflits")
	}
}

func BenchmarkFig12(b *testing.B) {
	cfg := benchCfg()
	cfg.Cycles = 3000
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig12(cfg, []string{"blackscholes"}, []float64{0.1, 0.3, 0.5})
		if err != nil {
			b.Fatal(err)
		}
		saturated := 0
		for _, p := range pts {
			if p.Saturated {
				saturated++
			}
		}
		b.ReportMetric(float64(saturated), "saturated-points")
	}
}

func BenchmarkFig13(b *testing.B) {
	cfg := benchCfg()
	cfg.Cycles = 3000
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig13(cfg, []int{5, 10, 20})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Benchmark == "ssca2" && r.Family == "FP-based" {
				b.ReportMetric(r.ThresholdLat[20], "ssca2-fp-lat-at-20pct")
			}
		}
	}
}

func BenchmarkFig14(b *testing.B) {
	cfg := benchCfg()
	cfg.Cycles = 3000
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig14(cfg, []int{25, 75})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Benchmark == "ssca2" && r.Family == "DI-based" {
				b.ReportMetric(r.RatioLat[75], "ssca2-di-lat-at-75pct")
			}
		}
	}
}

func BenchmarkFig15(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig15(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Benchmark == "ssca2" && r.Scheme == compress.FPVaxx {
				b.ReportMetric(r.NormPower, "ssca2-fpvaxx-normpower")
			}
		}
	}
}

func BenchmarkFig16(b *testing.B) {
	cfg := benchCfg()
	cfg.Cycles = 3000
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig16(cfg, []int{0, 10})
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, r := range rows {
			if r.ErrorAt[10] > worst {
				worst = r.ErrorAt[10]
			}
		}
		b.ReportMetric(worst, "worst-app-error-at-10pct")
	}
}

func BenchmarkFig17(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig17(compress.FPVaxx, 10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.VectorDiff, "bodytrack-vector-diff")
		b.ReportMetric(r.PSNR, "bodytrack-psnr-db")
	}
}

func BenchmarkAblationOverlap(b *testing.B) {
	cfg := benchCfg()
	cfg.Cycles = 3000
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationOverlap(cfg, []string{"ssca2"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].LatencyOff-rows[0].LatencyOn, "overlap-saving-cycles")
	}
}

func BenchmarkAblationPMT(b *testing.B) {
	cfg := benchCfg()
	cfg.Cycles = 3000
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationPMT(cfg, []string{"ssca2"}, []int{8, 32})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].Ratio-rows[0].Ratio, "pmt-32v8-ratio-gain")
	}
}

// --- Microbenchmarks of the core mechanisms -------------------------------

func benchBlocks(n int) []*value.Block {
	m, _ := workload.ByName("ssca2")
	src := m.NewSource(7, 0.75)
	blocks := make([]*value.Block, n)
	for i := range blocks {
		blocks[i] = src.NextBlock()
	}
	return blocks
}

func BenchmarkDIVaxxTransfer(b *testing.B) {
	factory, err := compress.FactoryFor(compress.DIVaxx, 2, 10)
	if err != nil {
		b.Fatal(err)
	}
	f := compress.NewFabric(2, factory)
	blocks := benchBlocks(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Transfer(0, 1, blocks[i%len(blocks)])
	}
}

// BenchmarkTCAMSearch exercises the bit-sliced match engine at the
// 256-entry point (the paper-scale PMT sweep lives in internal/tcam's
// engine-comparison grid alongside the retained naive oracle).
func BenchmarkTCAMSearch(b *testing.B) {
	const entries = 256
	t := tcam.NewTCAM(entries)
	for i := 0; i < entries; i++ {
		t.Insert(tcam.TEntry{Value: uint32(i) << 16, Mask: 0xFFFF})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Search(uint32(i) << 16 & 0xFF_FFFF)
	}
}

// BenchmarkNetworkCycle measures simulator speed: one fully-loaded
// 32-tile network cycle per iteration.
func BenchmarkNetworkCycle(b *testing.B) {
	sim, err := approxnoc.NewSimulator(approxnoc.DefaultOptions(approxnoc.FPVaxx, 10))
	if err != nil {
		b.Fatal(err)
	}
	blocks := benchBlocks(64)
	for i := 0; i < 64; i++ {
		sim.SendData(i%32, (i+5)%32, blocks[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%50 == 0 { // keep the network loaded
			sim.SendData(i%32, (i+5)%32, blocks[i%64])
		}
		sim.Step()
	}
}

// --- Serving-layer benchmarks ---------------------------------------------

// benchmarkGateway measures parallel gateway throughput: every bench
// goroutine is a client issuing one synchronous transfer at a time, so
// throughput scales with how well the shard pools absorb concurrency.
func benchmarkGateway(b *testing.B, shards int) {
	const nodes = 32
	gw, err := serve.New(serve.Config{
		Nodes: nodes, Scheme: compress.DIVaxx, ThresholdPct: 10,
		Shards: shards, QueueDepth: 4096, MaxBatch: 32,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer gw.Close()
	blocks := benchBlocks(256)
	var seq atomic.Uint64
	b.SetBytes(int64(4 * value.WordsPerBlock))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(seq.Add(1)) * 7919 // de-correlate the flows per client
		for pb.Next() {
			req := serve.Request{
				Src: i % nodes, Dst: (i*13 + 5) % nodes,
				Block:        blocks[i%len(blocks)],
				ThresholdPct: serve.DefaultThreshold,
			}
			for {
				_, err := gw.Do(req)
				if err == nil {
					break
				}
				if errors.Is(err, serve.ErrOverloaded) {
					runtime.Gosched()
					continue
				}
				b.Error(err)
				return
			}
			i++
		}
	})
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "blocks/sec")
		b.ReportMetric(float64(b.N)*float64(4*value.WordsPerBlock)/1e6/sec, "MB/s")
	}
}

func BenchmarkGatewayShards1(b *testing.B) { benchmarkGateway(b, 1) }

func BenchmarkGatewayShards4(b *testing.B) { benchmarkGateway(b, 4) }

func BenchmarkGatewayShardsMaxProcs(b *testing.B) {
	benchmarkGateway(b, runtime.GOMAXPROCS(0))
}

func BenchmarkBetweenness(b *testing.B) {
	g, err := graph.RMAT(8, 6, 3)
	if err != nil {
		b.Fatal(err)
	}
	srcs := graph.SampleSources(g, 16, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.Betweenness(g, srcs, nil)
	}
}

func BenchmarkAppBlackscholes(b *testing.B) {
	app, err := apps.ByName("blackscholes")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := app.Run(compress.DIVaxx, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadSource(b *testing.B) {
	m, _ := workload.ByName("blackscholes")
	src := m.NewSource(1, 0.75)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.NextBlock()
	}
}
