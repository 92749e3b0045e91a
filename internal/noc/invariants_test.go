package noc

import (
	"fmt"
	"testing"

	"approxnoc/internal/compress"
	"approxnoc/internal/sim"
	"approxnoc/internal/value"
	"approxnoc/internal/workload"
)

// CheckRequestMasks recomputes every router's allocator request masks and
// active-set counters from the VC state they summarize and reports the
// first disagreement: a bit set for a slot that is not requesting is a
// wasted probe at best, a bit missing is a flit that never moves.
func (n *Network) CheckRequestMasks() error {
	for _, r := range n.routers {
		sa, va := make([]uint64, r.ports), make([]uint64, r.ports)
		var rc uint64
		flits, routing := 0, 0
		for slot := range r.in {
			ivc := &r.in[slot]
			flits += ivc.count
			bit := uint64(1) << uint(slot)
			switch f := ivc.front(); {
			case ivc.state == vcActive && f != nil:
				sa[ivc.outPort] |= bit
			case ivc.state == vcRouting:
				va[ivc.outPort] |= bit
				routing++
			case ivc.state == vcIdle && f != nil && f.IsHead():
				rc |= bit
			}
		}
		for op := 0; op < r.ports; op++ {
			if r.saReq[op] != sa[op] || r.vaReq[op] != va[op] {
				return fmt.Errorf("cycle %d router %d port %d: saReq %#x want %#x, vaReq %#x want %#x",
					n.Now(), r.id, op, r.saReq[op], sa[op], r.vaReq[op], va[op])
			}
		}
		if r.rcReq != rc || r.flits != flits || r.routing != routing {
			return fmt.Errorf("cycle %d router %d: rcReq %#x want %#x, flits %d want %d, routing %d want %d",
				n.Now(), r.id, r.rcReq, rc, r.flits, flits, r.routing, routing)
		}
	}
	return nil
}

// Conservation: after a drain, every injected flit was ejected, every
// buffer is empty, and all credits have returned to their initial count.
func TestFlitAndCreditConservation(t *testing.T) {
	n := schemeNet(t, 4, 4, 2, compress.DIVaxx, 10)
	m, _ := workload.ByName("ssca2")
	src := m.NewSource(3, 0.75)
	r := sim.NewRand(17)
	for cycle := 0; cycle < 3000; cycle++ {
		for tile := 0; tile < 32; tile++ {
			if r.Bool(0.03) {
				dst := r.Intn(32)
				if dst == tile {
					continue
				}
				if r.Bool(0.5) {
					n.SendData(tile, dst, src.NextBlock())
				} else {
					n.SendControl(tile, dst)
				}
			}
		}
		n.Step()
		if err := n.CheckRequestMasks(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200000 && !n.Quiescent(); i++ {
		n.Step()
		if err := n.CheckRequestMasks(); err != nil {
			t.Fatal(err)
		}
	}
	if !n.Quiescent() {
		t.Fatalf("drain failed with %d in flight", n.InFlight())
	}
	s := n.Stats()
	if s.FlitsInjected != s.FlitsEjected {
		t.Fatalf("flits injected %d != ejected %d", s.FlitsInjected, s.FlitsEjected)
	}
	for ri, rt := range n.routers {
		if rt.bufferedFlits() != 0 {
			t.Fatalf("router %d holds %d flits after drain", ri, rt.bufferedFlits())
		}
		for o, ovc := range rt.out {
			p, v := o/rt.nvc, o%rt.nvc
			if !ovc.infinite && ovc.credits != n.cfg.BufDepth {
				t.Fatalf("router %d port %d vc %d has %d credits, want %d",
					ri, p, v, ovc.credits, n.cfg.BufDepth)
			}
			if ovc.owned {
				t.Fatalf("router %d port %d vc %d still owned after drain", ri, p, v)
			}
		}
	}
	for tile, ni := range n.nis {
		for v, c := range ni.credits {
			if c != n.cfg.BufDepth {
				t.Fatalf("NI %d vc %d has %d credits", tile, v, c)
			}
		}
	}
	// Dictionary decode mismatches must be zero under in-order delivery.
	for _, ni := range n.nis {
		type mismatcher interface{ DecodeMismatches() uint64 }
		if d, ok := ni.codec.(mismatcher); ok && d.DecodeMismatches() != 0 {
			t.Fatalf("NI %d saw %d decode mismatches", ni.tile, d.DecodeMismatches())
		}
	}
}

// The 8x8 64-tile mesh of the §5.4 full-system runs must behave.
func TestFullSystemMeshConfig(t *testing.T) {
	n := schemeNet(t, 8, 8, 1, compress.FPVaxx, 10)
	if n.Topology().Tiles() != 64 {
		t.Fatalf("%d tiles", n.Topology().Tiles())
	}
	m, _ := workload.ByName("blackscholes")
	src := m.NewSource(5, 0.75)
	r := sim.NewRand(23)
	sent := 0
	for cycle := 0; cycle < 1500; cycle++ {
		for tile := 0; tile < 64; tile++ {
			if r.Bool(0.01) {
				dst := r.Intn(64)
				if dst == tile {
					continue
				}
				n.SendData(tile, dst, src.NextBlock())
				sent++
			}
		}
		n.Step()
	}
	if !n.Drain(100000) {
		t.Fatal("8x8 drain failed")
	}
	if int(n.Stats().PacketsDelivered) != sent {
		t.Fatalf("delivered %d of %d", n.Stats().PacketsDelivered, sent)
	}
}

// No tile may be starved: under symmetric all-to-one pressure every
// source eventually delivers.
func TestNoStarvationUnderHotspot(t *testing.T) {
	n := baselineNet(t, 4, 4, 1)
	perSrc := map[int]int{}
	n.SetDeliveryHandler(func(p *Packet, _ *value.Block) {
		perSrc[p.Src]++
	})
	for round := 0; round < 60; round++ {
		for tile := 1; tile < 16; tile++ {
			n.SendControl(tile, 0)
		}
		n.Run(10)
	}
	if !n.Drain(100000) {
		t.Fatal("drain failed")
	}
	for tile := 1; tile < 16; tile++ {
		if perSrc[tile] != 60 {
			t.Fatalf("tile %d delivered %d of 60 packets", tile, perSrc[tile])
		}
	}
}

// Latency must be finite and bounded under sustained sub-saturation load
// (queues do not grow without bound).
func TestStableQueuesBelowSaturation(t *testing.T) {
	n := baselineNet(t, 4, 4, 1)
	r := sim.NewRand(9)
	for cycle := 0; cycle < 6000; cycle++ {
		for tile := 0; tile < 16; tile++ {
			if r.Bool(0.02) { // well below saturation
				dst := r.Intn(16)
				if dst != tile {
					n.SendControl(tile, dst)
				}
			}
		}
		n.Step()
	}
	maxQ := 0
	for _, ni := range n.nis {
		if q := ni.QueueLen(); q > maxQ {
			maxQ = q
		}
	}
	if maxQ > 20 {
		t.Fatalf("injection queue grew to %d below saturation", maxQ)
	}
}

// A 1x1 concentrated mesh degenerates to purely local switching and must
// still deliver.
func TestSingleRouterConcentratedMesh(t *testing.T) {
	n := baselineNet(t, 1, 1, 4)
	for s := 0; s < 4; s++ {
		for d := 0; d < 4; d++ {
			if s != d {
				n.SendControl(s, d)
			}
		}
	}
	if !n.Drain(5000) {
		t.Fatal("single-router mesh did not drain")
	}
	if n.Stats().PacketsDelivered != 12 {
		t.Fatalf("delivered %d of 12", n.Stats().PacketsDelivered)
	}
}
