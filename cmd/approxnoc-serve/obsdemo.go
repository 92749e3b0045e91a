package main

import (
	"bufio"
	"fmt"
	"net/http"
	"strings"

	"approxnoc/internal/obs"
	"approxnoc/internal/serve"
)

// runObsDemo boots a gateway with the obs debug endpoint, drives a short
// workload through it over one loopback connection, scrapes /metrics and
// /trace over real HTTP, and fails unless the scrape parses and reflects
// the traffic. It
// is the `make obs-demo` entry point and doubles as an end-to-end check
// that a live gateway can be watched.
func runObsDemo(cfg serve.Config, benchmark string, records int, seed uint64, debugAddr string) error {
	if debugAddr == "" {
		debugAddr = "127.0.0.1:0"
	}
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(16, 4096)
	cfg.Tracer = tracer

	rig, err := serve.NewLoadgenRig(cfg, serve.Loadgen{})
	if err != nil {
		return err
	}
	defer rig.Close()
	rig.Gateway().RegisterMetrics(reg)
	tracer.RegisterMetrics(reg)

	dbg, err := obs.StartDebugServer(debugAddr, reg, tracer)
	if err != nil {
		return err
	}
	defer dbg.Close()
	fmt.Printf("obs-demo            debug endpoints on http://%s/\n", dbg.Addr())

	recs, err := selftestRecords(cfg, benchmark, "", records, seed)
	if err != nil {
		return err
	}
	// selftestRecords without a trace file yields data records only.
	done := len(recs)
	if _, err := rig.Replay(done, func(_, seq int) serve.Request {
		return serve.Request{Src: recs[seq].Src, Dst: recs[seq].Dst, Block: recs[seq].Block}
	}, nil); err != nil {
		return fmt.Errorf("obs-demo transfer: %w", err)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", dbg.Addr()))
	if err != nil {
		return fmt.Errorf("obs-demo scrape: %w", err)
	}
	exp, err := obs.ParseText(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("obs-demo: /metrics does not parse: %w", err)
	}
	for _, want := range []string{
		"serve_processed_total", "serve_queue_depth", "serve_latency_ns",
		"serve_codec_compression_ratio", "obs_trace_dropped_total",
	} {
		if _, ok := exp.Types[want]; !ok {
			return fmt.Errorf("obs-demo: scrape is missing family %q", want)
		}
	}
	processed := 0.0
	for name, v := range exp.Values {
		if strings.HasPrefix(name, "serve_processed_total{") {
			processed += v
		}
	}
	if int(processed) != done {
		return fmt.Errorf("obs-demo: scrape shows %d processed requests, pushed %d", int(processed), done)
	}

	resp, err = http.Get(fmt.Sprintf("http://%s/trace?n=32", dbg.Addr()))
	if err != nil {
		return fmt.Errorf("obs-demo trace scrape: %w", err)
	}
	events := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, "cycle=") {
			resp.Body.Close()
			return fmt.Errorf("obs-demo: malformed trace line %q", line)
		}
		events++
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		return err
	}
	if events == 0 {
		return fmt.Errorf("obs-demo: /trace returned no events")
	}

	fmt.Printf("obs-demo            pushed %d blocks, scraped %d families / %d samples, %d trace events\n",
		done, len(exp.Types), exp.Samples, events)
	fmt.Println("obs-demo            scrape parses: ok")
	return nil
}
