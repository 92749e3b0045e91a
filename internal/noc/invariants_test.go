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
// routing counter from the VC state they summarize and reports the first
// disagreement: a bit set for a slot that is not requesting is a wasted
// probe at best, a bit missing is a flit that never moves.
func (n *Network) CheckRequestMasks() error {
	for _, r := range n.routers {
		sa, va := make([]uint64, r.ports), make([]uint64, r.ports)
		var rc uint64
		routing := 0
		for slot := range r.in {
			ivc := &r.in[slot]
			bit := uint64(1) << uint(slot)
			switch {
			case ivc.state == vcActive && ivc.count > 0:
				sa[ivc.outPort] |= bit
			case ivc.state == vcRouting:
				va[ivc.outPort] |= bit
				routing++
			case ivc.state == vcIdle && ivc.count > 0 && ivc.front().IsHead():
				rc |= bit
			}
		}
		for op := 0; op < r.ports; op++ {
			if r.saReq[op] != sa[op] || r.vaReq[op] != va[op] {
				return fmt.Errorf("cycle %d router %d port %d: saReq %#x want %#x, vaReq %#x want %#x",
					n.Now(), r.id, op, r.saReq[op], sa[op], r.vaReq[op], va[op])
			}
		}
		if r.rcReq != rc || r.routing != routing {
			return fmt.Errorf("cycle %d router %d: rcReq %#x want %#x, routing %d want %d",
				n.Now(), r.id, r.rcReq, rc, r.routing, routing)
		}
	}
	return nil
}

// CheckFlitSlots holds the flits to the packets their slots name and
// reports the first violation:
//   - every buffered and staged flit names an in-flight packet: one a slab
//     handed out, not on the free list, and not yet ejected into an NI's
//     decode FIFO or reorder map, where no ejected packet is on the free
//     list either;
//   - each input VC's flits run head…tail per packet, a head only after a
//     tail, and the front of a VC that holds no output VC is a head;
//   - each router's flit count is the sum of its VC counts.
func (n *Network) CheckFlitSlots() error {
	const (
		inFlight = 0
		free     = 1
		ejected  = 2
	)
	state := make([]uint8, n.slots)
	for _, p := range n.pktPool {
		if state[p.slot] == free {
			return fmt.Errorf("cycle %d: slot %d is on the free list twice", n.Now(), p.slot)
		}
		state[p.slot] = free
	}
	eject := func(p *Packet) error {
		if state[p.slot] == free {
			return fmt.Errorf("cycle %d: slot %d awaits delivery from the free list", n.Now(), p.slot)
		}
		state[p.slot] = ejected
		return nil
	}
	for _, ni := range n.nis {
		for src := range ni.from {
			fl := &ni.from[src]
			for _, d := range fl.q {
				if err := eject(d.p); err != nil {
					return err
				}
			}
			if len(fl.reorder) == 0 {
				continue // ranging an empty map still costs an iterator
			}
			for _, p := range fl.reorder {
				if err := eject(p); err != nil {
					return err
				}
			}
		}
	}
	// stray describes what is wrong with the packet a flit names, or "".
	stray := func(f flit) string {
		switch s := int(f.slot()); {
		case s >= n.slots:
			return fmt.Sprintf("names slot %d, past the %d handed out", s, n.slots)
		case state[s] == free:
			return fmt.Sprintf("names slot %d, on the free list", s)
		case state[s] == ejected:
			return fmt.Sprintf("names slot %d, already ejected", s)
		}
		return ""
	}
	for _, s := range n.flitStage {
		if why := stray(s.flit); why != "" {
			return fmt.Errorf("cycle %d: flit staged for router %d port %d vc %d %s", n.Now(), s.router, s.port, s.vc, why)
		}
	}
	for _, r := range n.routers {
		flits := 0
		for slot := range r.in {
			ivc := &r.in[slot]
			flits += ivc.count
			for k := 0; k < ivc.count; k++ {
				f := ivc.buf[(ivc.head+k)%len(ivc.buf)]
				if why := stray(f); why != "" {
					return fmt.Errorf("cycle %d: flit buffered at router %d slot %d %s", n.Now(), r.id, slot, why)
				}
				if k == 0 {
					if ivc.state != vcActive && !f.IsHead() {
						return fmt.Errorf("cycle %d: router %d slot %d fronts a non-head flit in state %d", n.Now(), r.id, slot, ivc.state)
					}
					continue
				}
				prev := ivc.buf[(ivc.head+k-1)%len(ivc.buf)]
				if prev.IsTail() != f.IsHead() || !prev.IsTail() && prev.slot() != f.slot() {
					return fmt.Errorf("cycle %d: router %d slot %d buffers flit %#x after %#x", n.Now(), r.id, slot, f, prev)
				}
			}
		}
		if r.flits != flits {
			return fmt.Errorf("cycle %d router %d: flits %d, VC counts sum to %d", n.Now(), r.id, r.flits, flits)
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
		if err := n.CheckFlitSlots(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200000 && !n.Quiescent(); i++ {
		n.Step()
		if err := n.CheckRequestMasks(); err != nil {
			t.Fatal(err)
		}
		if err := n.CheckFlitSlots(); err != nil {
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
