package cluster_test

import (
	"errors"
	"math"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"approxnoc/internal/cluster"
	"approxnoc/internal/compress"
	"approxnoc/internal/qos"
	"approxnoc/internal/serve"
)

// driverRig is one load rig as the driver tests see it: the embedded
// serve.Rig's Replay, the rig's own Run reduced to the serve measurement
// plus every overload re-issue it reports, and the gateways behind it.
type driverRig struct {
	replay   func(records int, next func(conn, seq int) serve.Request, hook func(serve.Request, serve.Result)) (serve.LoadgenResult, error)
	run      func(records int) (res serve.LoadgenResult, reissues int, err error)
	gateways func() []*serve.Gateway
}

// driverRigs builds the same load shape over a serve rig and over a
// two-node in-process cluster rig.
var driverRigs = []struct {
	name  string
	build func(t *testing.T, cfg serve.Config, lg serve.Loadgen) driverRig
}{
	{"serve", func(t *testing.T, cfg serve.Config, lg serve.Loadgen) driverRig {
		rig, err := serve.NewLoadgenRig(cfg, lg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rig.Close() })
		return driverRig{
			replay: rig.Replay,
			run: func(records int) (serve.LoadgenResult, int, error) {
				res, err := rig.Run(records)
				return res, res.Retries, err
			},
			gateways: func() []*serve.Gateway { return []*serve.Gateway{rig.Gateway()} },
		}
	}},
	{"cluster", func(t *testing.T, cfg serve.Config, lg serve.Loadgen) driverRig {
		// One client-side retry, then the overload surfaces: the driver's
		// own re-issue runs too, and the view still counts every rejection.
		rig, err := cluster.NewLoadgenRig(
			cluster.Config{Serve: cfg},
			cluster.ClientConfig{OverloadRetries: 1, OverloadBackoff: -1},
			cluster.Loadgen{Loadgen: lg, Nodes: 2},
		)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rig.Close() })
		return driverRig{
			replay: rig.Replay,
			run: func(records int) (serve.LoadgenResult, int, error) {
				res, err := rig.Run(records)
				if uint64(res.Retries) > res.OverloadRetries {
					t.Errorf("driver re-issued %d surfaced overloads, the view counted only %d", res.Retries, res.OverloadRetries)
				}
				return res.LoadgenResult, int(res.OverloadRetries), err
			},
			gateways: func() []*serve.Gateway {
				var gws []*serve.Gateway
				for _, id := range rig.Cluster().NodeIDs() {
					gw, _ := rig.Cluster().Gateway(id)
					gws = append(gws, gw)
				}
				return gws
			},
		}
	}},
}

// totals sums the gateways' counters and the tenant's spent error mass.
func (r driverRig) totals(tenant string) (m serve.Metrics, spent float64) {
	for _, gw := range r.gateways() {
		g := gw.Metrics()
		m.Processed += g.Processed
		m.Rejected += g.Rejected
		m.BudgetRejected += g.BudgetRejected
		spent += gw.Budgets()[tenant].Spent
	}
	return m, spent
}

// TestLoadgenDriver holds the one replay loop to its contract through
// both rigs: exact shares, overload re-issue, and budget refusals
// settled once.
func TestLoadgenDriver(t *testing.T) {
	exact := serve.Config{Nodes: 16, Scheme: compress.Baseline, Shards: 2, QueueDepth: 4096}
	for _, tc := range driverRigs {
		t.Run(tc.name+"/shares", func(t *testing.T) {
			const records = 1003 // 4 connections: 251, 251, 251, 250
			rig := tc.build(t, exact, serve.Loadgen{Conns: 4, Depth: 8})
			var issued [4]atomic.Int64
			var delivered atomic.Int64
			res, err := rig.replay(records,
				func(conn, seq int) serve.Request {
					if int64(seq) != issued[conn].Add(1)-1 {
						t.Errorf("conn %d issued seq %d out of order", conn, seq)
					}
					src := (conn + seq) % exact.Nodes
					return serve.Request{Src: src, Dst: (src + 1) % exact.Nodes, Block: costBlock()}
				},
				func(serve.Request, serve.Result) { delivered.Add(1) })
			if err != nil {
				t.Fatal(err)
			}
			for conn, want := range []int64{251, 251, 251, 250} {
				if got := issued[conn].Load(); got != want {
					t.Errorf("conn %d issued %d requests, want %d", conn, got, want)
				}
			}
			m, _ := rig.totals("")
			if res.Records != records || delivered.Load() != records || m.Processed != records || res.Retries != 0 {
				t.Fatalf("records %d delivered %d processed %d retries %d, want %d each and no retries",
					res.Records, delivered.Load(), m.Processed, res.Retries, records)
			}
		})

		t.Run(tc.name+"/overload", func(t *testing.T) {
			const records = 3000
			tight := serve.Config{Nodes: 16, Scheme: compress.Baseline, Shards: 1, QueueDepth: 2}
			rig := tc.build(t, tight, serve.Loadgen{Conns: 4, Depth: 32})
			res, reissues, err := rig.run(records)
			if err != nil {
				t.Fatal(err)
			}
			m, _ := rig.totals("")
			if m.Rejected == 0 {
				t.Skip("queue never overflowed; overload path not exercised on this run")
			}
			if uint64(reissues) != m.Rejected {
				t.Errorf("rig reports %d overload re-issues, gateways rejected %d", reissues, m.Rejected)
			}
			if res.Records != records || m.Processed != records {
				t.Errorf("records %d processed %d, want %d: every record completes exactly once", res.Records, m.Processed, records)
			}
		})

		t.Run(tc.name+"/budget", func(t *testing.T) {
			// 16 words at 10% cost 1.6 each; 161 covers 100 per gateway and
			// never refills, so the tenant runs dry mid-replay.
			const records, cost = 1000, 1.6
			budgeted := serve.Config{
				Nodes: 16, Scheme: compress.FPVaxx, ThresholdPct: 10, Shards: 2, QueueDepth: 4096,
				QoS: &qos.Config{
					Controller: qos.ControllerConfig{MaxPct: -1},
					Budgets:    map[string]qos.BudgetConfig{"t": {Capacity: 161}},
				},
			}
			rig := tc.build(t, budgeted, serve.Loadgen{Conns: 2, Depth: 16, Tenant: "t"})
			res, reissues, err := rig.run(records)
			if err != nil {
				t.Fatal(err)
			}
			m, spent := rig.totals("t")
			if res.BudgetRefused == 0 || uint64(res.BudgetRefused) != m.BudgetRejected {
				t.Fatalf("rig settled %d refusals, gateways refused %d (want equal and > 0)", res.BudgetRefused, m.BudgetRejected)
			}
			if m.Processed != records || reissues != 0 {
				t.Errorf("processed %d with %d re-issues, want %d and 0: a refusal is never re-issued", m.Processed, reissues, records)
			}
			if want := cost * float64(records-res.BudgetRefused); math.Abs(spent-want) > 1e-6 {
				t.Errorf("ledger spent %g, want %g: only served records are charged", spent, want)
			}
		})
	}
}

// TestLoadgenDriverAbort: an error that is neither backpressure nor a
// budget refusal ends the run and names the connection it hit.
func TestLoadgenDriverAbort(t *testing.T) {
	t.Run("serve", func(t *testing.T) {
		// Connection 0 reaches a live server; connection 1's peer hung up
		// before the run.
		gw, err := serve.New(serve.Config{Nodes: 16, Scheme: compress.Baseline})
		if err != nil {
			t.Fatal(err)
		}
		defer gw.Close()
		srv := serve.NewServer(gw)
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		dials := 0
		rig, err := serve.NewRig(serve.Loadgen{Conns: 2, Depth: 4}, 16, func() (*serve.Client, error) {
			if dials++; dials == 1 {
				return serve.Dial(ln.Addr().String())
			}
			near, far := net.Pipe()
			far.Close()
			return serve.NewClient(near), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rig.Close()
		_, err = rig.Run(100)
		if err == nil || !errors.Is(err, serve.ErrTransport) || !strings.Contains(err.Error(), "loadgen conn 1:") {
			t.Fatalf("run over a dead connection 1 returned %v, want a transport failure naming conn 1", err)
		}
	})

	t.Run("cluster", func(t *testing.T) {
		rig, err := cluster.NewLoadgenRig(testClusterConfig(2), cluster.ClientConfig{},
			cluster.Loadgen{Loadgen: serve.Loadgen{Conns: 2, Depth: 4}, Nodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer rig.Close()
		for _, id := range rig.Cluster().NodeIDs() {
			if err := rig.Cluster().Kill(id); err != nil {
				t.Fatal(err)
			}
		}
		_, err = rig.Run(100)
		if err == nil || !errors.Is(err, cluster.ErrNoNodes) || !strings.Contains(err.Error(), "loadgen conn ") {
			t.Fatalf("run over a dead cluster returned %v, want ErrNoNodes naming the connection", err)
		}
	})
}
