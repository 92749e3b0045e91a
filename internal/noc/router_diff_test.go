package noc_test

import (
	"fmt"
	"testing"

	"approxnoc/internal/compress"
	"approxnoc/internal/noc"
	"approxnoc/internal/sim"
	"approxnoc/internal/topology"
	"approxnoc/internal/traffic"
	"approxnoc/internal/value"
	"approxnoc/internal/workload"
)

// diffNet is one of a pair of identically seeded networks; the two differ
// only in whether Step or StepNaive advances them.
type diffNet struct {
	net *noc.Network
	inj *traffic.Injector
	log []pktTimes
}

// pktTimes is what the allocators decide about one packet.
type pktTimes struct {
	id                           uint64
	injected, ejected, delivered sim.Cycle
}

func newDiffNet(t *testing.T, vcs, conc int, pattern traffic.Pattern, rate float64) *diffNet {
	t.Helper()
	topo, err := topology.NewCMesh(4, 4, conc)
	if err != nil {
		t.Fatal(err)
	}
	// DI-VAXX, so notification packets ride the same routers.
	factory, err := compress.FactoryFor(compress.DIVaxx, topo.Tiles(), 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := noc.DefaultConfig()
	cfg.VCs = vcs
	net, err := noc.New(topo, cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	m, err := workload.ByName("ssca2")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := traffic.New(net, traffic.Config{
		Pattern: pattern, FlitRate: rate, DataRatio: 0.25,
		Source: m.NewSource(7, 0.75), Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := &diffNet{net: net, inj: inj}
	net.AddDeliveryHandler(func(p *noc.Packet, _ *value.Block) {
		d.log = append(d.log, pktTimes{p.ID, p.InjectedAt, p.EjectedAt, p.DeliveredAt})
	})
	return d
}

// TestAllocatorsMatchNaiveSweep steps twin networks, one through the
// request-mask allocators and one through the exhaustive sweeps they
// replaced, and requires the same statistics and power events, request
// masks consistent with VC state and flits consistent with the packets
// they name (CheckFlitSlots) after every cycle, and the same per-packet
// timeline at the end. 4x4 routers at concentration 4 and 8
// VCs is the 64-slot boundary: the top mask bit is a live input VC there.
func TestAllocatorsMatchNaiveSweep(t *testing.T) {
	vcGrid, concGrid := []int{1, 2, 4, 8}, []int{1, 2, 4}
	cycles := 800
	if testing.Short() {
		vcGrid, concGrid, cycles = []int{1, 8}, []int{2, 4}, 400
	}
	patterns := []traffic.Pattern{traffic.UniformRandom, traffic.Transpose, traffic.Hotspot}
	for _, vcs := range vcGrid {
		for _, conc := range concGrid {
			for _, pattern := range patterns {
				// Flits/cycle/tile: near idle, and past what any of these
				// meshes sustains, so credits and ports are contended.
				for _, rate := range []float64{0.02, 0.9} {
					name := fmt.Sprintf("vcs%d/c%d/%v/rate%g", vcs, conc, pattern, rate)
					t.Run(name, func(t *testing.T) {
						diffRun(t, cycles, newDiffNet(t, vcs, conc, pattern, rate), newDiffNet(t, vcs, conc, pattern, rate))
					})
				}
			}
		}
	}
}

func diffRun(t *testing.T, cycles int, fast, naive *diffNet) {
	step := func(inject bool) {
		if inject {
			fast.inj.Tick()
			naive.inj.Tick()
		}
		fast.net.Step()
		naive.net.StepNaive()
		if err := fast.net.CheckRequestMasks(); err != nil {
			t.Fatal(err)
		}
		if err := fast.net.CheckFlitSlots(); err != nil {
			t.Fatal(err)
		}
		if f, n := fast.net.Stats(), naive.net.Stats(); f != n {
			t.Fatalf("cycle %d: stats diverged\nmasks %+v\nsweep %+v", fast.net.Now(), f, n)
		}
		if f, n := fast.net.Power(), naive.net.Power(); f != n {
			t.Fatalf("cycle %d: power events diverged\nmasks %+v\nsweep %+v", fast.net.Now(), f, n)
		}
	}
	for i := 0; i < cycles; i++ {
		step(true)
	}
	for i := 0; i < 40*cycles && !fast.net.Quiescent(); i++ {
		step(false)
	}
	if !fast.net.Quiescent() || !naive.net.Quiescent() {
		t.Fatalf("did not drain: masks %d in flight, sweep %d", fast.net.InFlight(), naive.net.InFlight())
	}
	if fast.net.Stats().PacketsDelivered == 0 {
		t.Fatal("no packet delivered; the case exercises nothing")
	}
	for i := 0; i < min(len(fast.log), len(naive.log)); i++ {
		if fast.log[i] != naive.log[i] {
			t.Fatalf("delivery %d differs: masks %+v, sweep %+v", i, fast.log[i], naive.log[i])
		}
	}
	if len(fast.log) != len(naive.log) {
		t.Fatalf("masks delivered %d packets, sweep %d", len(fast.log), len(naive.log))
	}
}
