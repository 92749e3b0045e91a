package serve_test

import (
	"slices"
	"strings"
	"testing"

	"approxnoc/internal/compress"
	"approxnoc/internal/obs"
	"approxnoc/internal/serve"
)

// codecFamilies lists the codec families on reg, prefix stripped and
// sorted, so two layers' exports compare by shape.
func codecFamilies(reg *obs.Registry, prefix string) []string {
	var out []string
	for _, f := range reg.Snapshot().Families {
		if rest, ok := strings.CutPrefix(f.Name, prefix+"_codec_"); ok {
			out = append(out, "codec_"+rest)
		}
	}
	slices.Sort(out)
	return out
}

// TestGatewayMetricsAndTrace drives a gateway with the obs layer
// attached and checks the scrape reflects the traffic exactly and the
// tracer saw the batch and codec events.
func TestGatewayMetricsAndTrace(t *testing.T) {
	tracer := obs.NewTracer(4, 4096)
	gw, err := serve.New(serve.Config{
		Nodes: 8, Scheme: compress.FPComp, Shards: 4, Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	reg := obs.NewRegistry()
	gw.RegisterMetrics(reg)
	tracer.RegisterMetrics(reg)

	blocks := testBlocks(t, "ssca2", 200, 7)
	for i, blk := range blocks {
		doRetry(t, gw, serve.Request{Src: i % 8, Dst: (i + 1) % 8, Block: blk})
	}

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("gateway scrape does not parse: %v", err)
	}
	sum := func(prefix string) float64 {
		var s float64
		for name, v := range exp.Values {
			if strings.HasPrefix(name, prefix+"{") {
				s += v
			}
		}
		return s
	}
	if got := sum("serve_processed_total"); got != 200 {
		t.Fatalf("processed = %g, want 200", got)
	}
	if got := sum("serve_accepted_total"); got != 200 {
		t.Fatalf("accepted = %g, want 200", got)
	}
	if exp.Values["serve_shards"] != 4 {
		t.Fatalf("serve_shards = %g", exp.Values["serve_shards"])
	}
	if got := exp.Values[`serve_latency_ns_count{shard="all"}`]; got != 200 {
		t.Fatalf("merged latency count = %g, want 200", got)
	}
	cs := gw.CodecStats()
	if got := sum("serve_codec_blocks_total"); got != float64(cs.BlocksIn+cs.BlocksDecoded) {
		t.Fatalf("codec blocks = %g, stats say %d", got, cs.BlocksIn+cs.BlocksDecoded)
	}
	// The gateway exports the codec family set the NoC prefix gets: nine
	// prefixed families, from the one exporter.
	nocReg := obs.NewRegistry()
	compress.RegisterMetrics(nocReg, "noc", func() compress.OpStats { return compress.OpStats{} })
	if got, want := codecFamilies(reg, "serve"), codecFamilies(nocReg, "noc"); len(got) != 9 || !slices.Equal(got, want) {
		t.Fatalf("serve codec families %v differ from the noc set %v", got, want)
	}

	kinds := make(map[obs.EventKind]int)
	for _, e := range tracer.Snapshot() {
		kinds[e.Kind]++
	}
	if kinds[obs.EvBatch] == 0 || kinds[obs.EvCompress] == 0 || kinds[obs.EvDecompress] == 0 {
		t.Fatalf("missing gateway trace events: %v", kinds)
	}
}

// TestGatewayOverloadTraced fills a tiny queue until Submit rejects and
// checks the rejection shows up both in the scrape and the trace.
func TestGatewayOverloadTraced(t *testing.T) {
	tracer := obs.NewTracer(1, 256)
	gw, err := serve.New(serve.Config{
		Nodes: 4, Scheme: compress.Baseline, Shards: 1, QueueDepth: 2, Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	reg := obs.NewRegistry()
	gw.RegisterMetrics(reg)

	blocks := testBlocks(t, "ssca2", 64, 3)
	reply := make(chan serve.Result, len(blocks))
	rejected := 0
	for i, blk := range blocks {
		if err := gw.Submit(serve.Request{Src: 0, Dst: 1, Block: blk, Tag: uint64(i)}, reply); err != nil {
			rejected++
		}
	}
	if rejected == 0 {
		t.Skip("queue never filled; nothing to assert")
	}
	var got float64
	for _, f := range reg.Snapshot().Families {
		if f.Name == "serve_rejected_total" {
			for _, s := range f.Samples {
				got += s.Value
			}
		}
	}
	if got != float64(rejected) {
		t.Fatalf("scrape shows %g rejections, gateway returned %d", got, rejected)
	}
	overloads := 0
	for _, e := range tracer.Snapshot() {
		if e.Kind == obs.EvOverload {
			overloads++
		}
	}
	if overloads == 0 {
		t.Fatal("no EvOverload events traced")
	}
}
