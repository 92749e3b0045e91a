package serve

import (
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"approxnoc/internal/compress"
	"approxnoc/internal/qos"
)

// newTestRig is NewLoadgenRig, closed when the test ends.
func newTestRig(t *testing.T, cfg Config, lg Loadgen) *LoadgenRig {
	t.Helper()
	rig, err := NewLoadgenRig(cfg, lg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rig.Close() })
	return rig
}

// TestLoadgenDriver holds the one replay loop to its contract: exact
// shares, overload re-issue, and budget refusals settled once.
func TestLoadgenDriver(t *testing.T) {
	t.Run("shares", func(t *testing.T) {
		const records = 1003 // 4 connections: 251, 251, 251, 250
		exact := Config{Nodes: 16, Scheme: compress.Baseline, Shards: 2, QueueDepth: 4096}
		rig := newTestRig(t, exact, Loadgen{Conns: 4, Depth: 8})
		var issued [4]atomic.Int64
		var delivered atomic.Int64
		res, err := rig.Replay(records,
			func(conn, seq int) Request {
				if int64(seq) != issued[conn].Add(1)-1 {
					t.Errorf("conn %d issued seq %d out of order", conn, seq)
				}
				src := (conn + seq) % exact.Nodes
				return Request{Src: src, Dst: (src + 1) % exact.Nodes, Block: tenWordBlock()}
			},
			func(Request, Result) { delivered.Add(1) })
		if err != nil {
			t.Fatal(err)
		}
		for conn, want := range []int64{251, 251, 251, 250} {
			if got := issued[conn].Load(); got != want {
				t.Errorf("conn %d issued %d requests, want %d", conn, got, want)
			}
		}
		m := rig.Gateway().Metrics()
		if res.Records != records || delivered.Load() != records || m.Processed != records || res.Retries != 0 {
			t.Fatalf("records %d delivered %d processed %d retries %d, want %d each and no retries",
				res.Records, delivered.Load(), m.Processed, res.Retries, records)
		}
	})

	t.Run("overload", func(t *testing.T) {
		const records = 3000
		tight := Config{Nodes: 16, Scheme: compress.Baseline, Shards: 1, QueueDepth: 2}
		rig := newTestRig(t, tight, Loadgen{Conns: 4, Depth: 32})
		res, err := rig.Run(records)
		if err != nil {
			t.Fatal(err)
		}
		m := rig.Gateway().Metrics()
		if m.Rejected == 0 {
			t.Skip("queue never overflowed; overload path not exercised on this run")
		}
		if uint64(res.Retries) != m.Rejected {
			t.Errorf("rig reports %d overload re-issues, gateway rejected %d", res.Retries, m.Rejected)
		}
		if res.Records != records || m.Processed != records {
			t.Errorf("records %d processed %d, want %d: every record completes exactly once", res.Records, m.Processed, records)
		}
	})

	t.Run("budget", func(t *testing.T) {
		// 16 words at 10% cost 1.6 each; 161 covers 100 and never
		// refills, so the tenant runs dry mid-replay.
		const records, cost = 1000, 1.6
		budgeted := Config{
			Nodes: 16, Scheme: compress.FPVaxx, ThresholdPct: 10, Shards: 2, QueueDepth: 4096,
			QoS: &qos.Config{
				Controller: qos.ControllerConfig{MaxPct: -1},
				Budgets:    map[string]qos.BudgetConfig{"t": {Capacity: 161}},
			},
		}
		rig := newTestRig(t, budgeted, Loadgen{Conns: 2, Depth: 16, Tenant: "t"})
		res, err := rig.Run(records)
		if err != nil {
			t.Fatal(err)
		}
		m, spent := rig.Gateway().Metrics(), rig.Gateway().Budgets()["t"].Spent
		if res.BudgetRefused == 0 || uint64(res.BudgetRefused) != m.BudgetRejected {
			t.Fatalf("rig settled %d refusals, gateway refused %d (want equal and > 0)", res.BudgetRefused, m.BudgetRejected)
		}
		if m.Processed != records || res.Retries != 0 {
			t.Errorf("processed %d with %d re-issues, want %d and 0: a refusal is never re-issued", m.Processed, res.Retries, records)
		}
		if want := cost * float64(records-res.BudgetRefused); math.Abs(spent-want) > 1e-6 {
			t.Errorf("ledger spent %g, want %g: only served records are charged", spent, want)
		}
	})
}

// TestLoadgenDriverAbort: an error that is neither backpressure nor a
// budget refusal ends the run and names the connection it hit. In each
// case one connection's peer hung up before the run; the other reaches
// the rig's server.
func TestLoadgenDriverAbort(t *testing.T) {
	for _, dead := range []int{0, 1} {
		t.Run(fmt.Sprintf("conn%d", dead), func(t *testing.T) {
			dials := 0
			rig, err := newLoadgenRig(Config{Nodes: 16, Scheme: compress.Baseline}, Loadgen{Conns: 2, Depth: 4},
				func(addr string) (*Client, error) {
					if dials++; dials-1 != dead {
						return Dial(addr)
					}
					near, far := net.Pipe()
					far.Close()
					return NewClient(near), nil
				})
			if err != nil {
				t.Fatal(err)
			}
			defer rig.Close()
			_, err = rig.Run(100)
			want := fmt.Sprintf("loadgen conn %d:", dead)
			if err == nil || !errors.Is(err, ErrTransport) || !strings.Contains(err.Error(), want) {
				t.Fatalf("run over a dead connection %d returned %v, want a transport failure naming conn %d", dead, err, dead)
			}
		})
	}
}
