package obs_test

import (
	"bytes"
	"testing"
	"time"

	"approxnoc/internal/compress"
	"approxnoc/internal/noc"
	"approxnoc/internal/obs"
	"approxnoc/internal/qos"
	"approxnoc/internal/serve"
	"approxnoc/internal/topology"
	"approxnoc/internal/value"
)

// TestProductionRegistriesContract holds every production registration
// to the pull path's contract. Nothing checks label arity at scrape
// time — WriteText renders a missing label value as "" — so this walks
// the registries a QoS gateway with budgets, a Server, a Network and a
// Tracer register, each after some traffic, and
// asserts: every sample carries exactly one value per label name, two
// scrapes of quiescent state are byte-identical, and ParseText accepts
// the output.
func TestProductionRegistriesContract(t *testing.T) {
	regs := map[string]*obs.Registry{}
	reg := func(owner string) *obs.Registry {
		regs[owner] = obs.NewRegistry()
		return regs[owner]
	}

	tracer := obs.NewTracer(2, 256)
	tracer.RegisterMetrics(reg("tracer"))

	gw, err := serve.New(serve.Config{
		Nodes: 4, Scheme: compress.FPVaxx, ThresholdPct: 10, Shards: 2, Tracer: tracer,
		QoS: &qos.Config{
			Budgets: map[string]qos.BudgetConfig{
				"gold":   {Capacity: 100, RefillPerSec: 10},
				"bronze": {Capacity: 1},
			},
			Clock: qos.NewFakeClock(time.Unix(0, 0)), // no refill between the two scrapes
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	gw.RegisterMetrics(reg("gateway"))
	serve.NewServer(gw).RegisterMetrics(reg("server"))
	blk := value.BlockFromF32([]float32{1, 1.01, 2, 2.02, 3, 3.03, 4, 4.04}, true)
	for i, tenant := range []string{"gold", "bronze", "", "gold"} {
		if _, err := gw.Do(serve.Request{Src: i % 4, Dst: (i + 1) % 4, Block: blk, Tenant: tenant}); err != nil {
			t.Fatalf("request %d (tenant %q): %v", i, tenant, err)
		}
	}

	topo, err := topology.NewCMesh(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := compress.FactoryFor(compress.DIVaxx, topo.Tiles(), 10)
	if err != nil {
		t.Fatal(err)
	}
	net, err := noc.New(topo, noc.DefaultConfig(), factory)
	if err != nil {
		t.Fatal(err)
	}
	net.EnableObs(reg("network"), tracer, 1)
	for i := 0; i < 8; i++ {
		if _, err := net.SendData(i%4, (i+1)%4, blk); err != nil {
			t.Fatal(err)
		}
	}
	net.Drain(10000)

	for owner, r := range regs {
		snap := r.Snapshot()
		if len(snap.Families) == 0 {
			t.Errorf("%s: registered no families", owner)
		}
		for _, f := range snap.Families {
			if len(f.Samples) == 0 {
				t.Errorf("%s: family %s has no samples", owner, f.Name)
			}
			for _, s := range f.Samples {
				if len(s.LabelValues) != len(f.Labels) {
					t.Errorf("%s: %s%s carries label values %q for labels %q",
						owner, f.Name, s.Suffix, s.LabelValues, f.Labels)
				}
			}
		}
		var first, second bytes.Buffer
		if err := r.WriteText(&first); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteText(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("%s: two scrapes of quiescent state differ:\n%s\n---\n%s", owner, &first, &second)
		}
		exp, err := obs.ParseText(&first)
		if err != nil {
			t.Errorf("%s: exposition does not parse: %v", owner, err)
		} else if exp.Samples == 0 {
			t.Errorf("%s: exposition has no samples", owner)
		}
	}
}
