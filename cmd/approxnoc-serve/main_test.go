package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"approxnoc/internal/compress"
	"approxnoc/internal/serve"
	"approxnoc/internal/sim"
	"approxnoc/internal/workload"
)

func selftestConfig(scheme compress.Scheme, threshold int) serve.Config {
	return serve.Config{
		Nodes: 8, Scheme: scheme, ThresholdPct: threshold,
		Shards: 4, QueueDepth: 256,
	}
}

func TestSelftestThresholdZero(t *testing.T) {
	if err := runSelftest(selftestConfig(compress.DIVaxx, 0), "ssca2", "", 300, 8, 1); err != nil {
		t.Fatal(err)
	}
}

func TestSelftestApproximate(t *testing.T) {
	if err := runSelftest(selftestConfig(compress.FPVaxx, 10), "blackscholes", "", 200, 4, 2); err != nil {
		t.Fatal(err)
	}
}

func TestSelftestSingleShard(t *testing.T) {
	cfg := selftestConfig(compress.DIComp, 0)
	cfg.Shards = 1
	if err := runSelftest(cfg, "ssca2", "", 150, 4, 3); err != nil {
		t.Fatal(err)
	}
}

func TestSelftestFromTraceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.trace")
	m, err := workload.ByName("x264")
	if err != nil {
		t.Fatal(err)
	}
	src := m.NewSource(5, 0.75)
	rng := sim.NewRand(6)
	var buf bytes.Buffer
	w, err := workload.NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		from := rng.Intn(8)
		rec := workload.TraceRecord{Src: from, Dst: (from + 1) % 8}
		if i%4 != 0 {
			rec.IsData = true
			rec.Block = src.NextBlock()
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runSelftest(selftestConfig(compress.FPComp, 0), "", path, 0, 4, 1); err != nil {
		t.Fatal(err)
	}
}

func TestSelftestRejectsBadInputs(t *testing.T) {
	if err := runSelftest(selftestConfig(compress.DIVaxx, 0), "doom", "", 10, 2, 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := runSelftest(selftestConfig(compress.DIVaxx, 0), "ssca2", "", 10, 0, 1); err == nil {
		t.Error("zero clients accepted")
	}
	if err := runSelftest(selftestConfig(compress.DIVaxx, 0), "", "/does/not/exist", 10, 2, 1); err == nil {
		t.Error("missing trace file accepted")
	}
	cfg := selftestConfig(compress.DIVaxx, 0)
	cfg.Nodes = 1
	if err := runSelftest(cfg, "ssca2", "", 10, 2, 1); err == nil {
		t.Error("single-node selftest accepted")
	}
}

// TestLoadgenValidatesKnobs: each load-shape knob must be >= 1, with
// an error naming the flag (the -records semantics are
// total-across-connections, so a zero anywhere means no load at all).
func TestLoadgenValidatesKnobs(t *testing.T) {
	cfg := selftestConfig(compress.Baseline, 0)
	for _, tc := range []struct {
		lg   serve.Loadgen
		flag string
	}{
		{serve.Loadgen{Conns: 0, Depth: 1, Words: 1, Records: 1}, "-conns"},
		{serve.Loadgen{Conns: 1, Depth: -2, Words: 1, Records: 1}, "-depth"},
		{serve.Loadgen{Conns: 1, Depth: 1, Words: 0, Records: 1}, "-words"},
		{serve.Loadgen{Conns: 1, Depth: 1, Words: 1, Records: 0}, "-records"},
	} {
		err := runLoadgen(cfg, tc.lg)
		if err == nil || !strings.Contains(err.Error(), tc.flag) || !strings.Contains(err.Error(), ">= 1") {
			t.Errorf("loadgen %+v: got %v, want a %s >= 1 error", tc.lg, err, tc.flag)
		}
	}
}

// TestRunServerUnusableAddrs: runServer returns the listen error for an
// -addr or a -debug-addr it cannot bind, and leaves nothing serving —
// the goroutine count falls back to where it was, and a debug endpoint
// it did start has given its port back.
func TestRunServerUnusableAddrs(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	free := probe.Addr().String()
	probe.Close()

	baseline := runtime.NumGoroutine()
	for _, tc := range []struct{ name, addr, debugAddr string }{
		{"addr", taken.Addr().String(), free},
		{"debug-addr", "127.0.0.1:0", taken.Addr().String()},
	} {
		if err := runServer(selftestConfig(compress.DIVaxx, 0), tc.addr, tc.debugAddr); err == nil {
			t.Fatalf("%s: runServer on a bound port returned nil", tc.name)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after runServer failed, %d before", tc.name, runtime.NumGoroutine(), baseline)
			}
		}
	}
	ln, err := net.Listen("tcp", free)
	if err != nil {
		t.Fatalf("debug port still held after runServer failed: %v", err)
	}
	ln.Close()
}
