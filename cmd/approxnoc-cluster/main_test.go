package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// defaultOptions mirrors the flag defaults with a small workload.
func defaultOptions() options {
	return options{
		nodes: 2, schemeName: "DI-VAXX", threshold: 0, endpoints: 16,
		conns: 2, depth: 8, words: 16, records: 500,
	}
}

func TestRunLoadgenInProcess(t *testing.T) {
	var out bytes.Buffer
	o := defaultOptions()
	o.loadgen = true
	if err := run(o, &out, nil); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"loadgen", "2 nodes", "records/sec", "500 records", "n0=", "n1="} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunValidatesLoadgenKnobs(t *testing.T) {
	for _, breakIt := range []func(*options){
		func(o *options) { o.nodes = 0 },
		func(o *options) { o.conns = 0 },
		func(o *options) { o.depth = -1 },
		func(o *options) { o.words = 0 },
		func(o *options) { o.records = 0 },
	} {
		o := defaultOptions()
		o.loadgen = true
		breakIt(&o)
		var out bytes.Buffer
		err := run(o, &out, nil)
		if err == nil || !strings.Contains(err.Error(), ">= 1") {
			t.Fatalf("options %+v: got %v, want a >= 1 validation error", o, err)
		}
		if out.Len() != 0 {
			t.Fatalf("options %+v: wrote %q before failing", o, out.String())
		}
	}
}

func TestRunRejectsBadScheme(t *testing.T) {
	o := defaultOptions()
	o.schemeName = "nope"
	if err := run(o, &bytes.Buffer{}, nil); err == nil {
		t.Fatal("bogus scheme accepted")
	}
}

func TestRunServerModeNeedsDebugAddr(t *testing.T) {
	o := defaultOptions()
	if err := run(o, &bytes.Buffer{}, nil); err == nil || !strings.Contains(err.Error(), "-debug-addr") {
		t.Fatalf("got %v, want a -debug-addr error", err)
	}
}

// TestRunServerModeServesMembershipAndMetrics boots the in-process
// cluster server mode and scrapes both endpoint families, then chains
// a second instance onto it via -seed in loadgen mode — the remote
// path end to end.
func TestRunServerModeServesMembershipAndMetrics(t *testing.T) {
	o := defaultOptions()
	o.debugAddr = "127.0.0.1:0"
	o.heartbeat = -1
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	var out bytes.Buffer
	go func() { errc <- run(o, &out, ready) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("server exited early: %v (output %q)", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/cluster/members")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Members []struct{ ID, Addr, State string }
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(body.Members) != 2 || body.Members[0].State != "healthy" {
		t.Fatalf("members %+v", body.Members)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	metrics.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(metrics.String(), `cluster_nodes{state="healthy"} 2`) {
		t.Fatalf("metrics missing healthy gauge:\n%s", metrics.String())
	}

	// Second instance: seed-bootstrapped remote loadgen against the
	// first instance's nodes.
	lo := defaultOptions()
	lo.loadgen = true
	lo.seedURL = base
	lo.heartbeat = -1
	lo.records = 200
	var lout bytes.Buffer
	if err := run(lo, &lout, nil); err != nil {
		t.Fatalf("seeded loadgen: %v", err)
	}
	if !strings.Contains(lout.String(), "2 remote nodes") ||
		!strings.Contains(lout.String(), "200 records") {
		t.Fatalf("seeded loadgen output:\n%s", lout.String())
	}

	// Peers mode reaches the same nodes by address list.
	po := defaultOptions()
	po.loadgen = true
	po.heartbeat = -1
	po.records = 200
	var addrs []string
	for _, m := range body.Members {
		addrs = append(addrs, m.Addr)
	}
	po.peers = strings.Join(addrs, ",")
	var pout bytes.Buffer
	if err := run(po, &pout, nil); err != nil {
		t.Fatalf("peers loadgen: %v", err)
	}
	if !strings.Contains(pout.String(), "2 remote nodes") {
		t.Fatalf("peers loadgen output:\n%s", pout.String())
	}
}

// TestSortedKeys pins the tiny insertion sort used for balance output.
func TestSortedKeys(t *testing.T) {
	got := sortedKeys(map[string]uint64{"n2": 1, "n0": 2, "n10": 3, "n1": 4})
	want := fmt.Sprint([]string{"n0", "n1", "n10", "n2"})
	if fmt.Sprint(got) != want {
		t.Fatalf("sortedKeys = %v, want %v", got, want)
	}
}
