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

// CheckFlitSlots holds every packet slot to the one place that owns it
// and every flit to the packet its slot names, and reports the first
// violation:
//   - each slot is on at most one of the free list, an injection queue,
//     an NI's cur, a reorder list or a decode FIFO; a list that loops
//     reaches a slot twice, so every walk ends within the slots handed out;
//   - a list's tail is its last packet, and qlen and pendingDeliveries
//     equal the lengths of the lists they count;
//   - a reorder list strictly ascends in Seq, past its flow's expected;
//   - every buffered and staged flit names a packet a slab handed out that
//     is no NI's queued, reordered, decoding or free packet;
//   - the packets found, flits by slot included, number exactly inFlight,
//     and with the free list every slot handed out; a slot on no list
//     keeps a zero link;
//   - each input VC's flits run head…tail per packet, a head only after a
//     tail, and the front of a VC that holds no output VC is a head;
//   - each router's flit count is the sum of its VC counts.
func (n *Network) CheckFlitSlots() error {
	const (
		unseen uint8 = iota
		free
		queued
		streaming
		reordered
		decoding
		inNetwork // named only by flits
	)
	where := [...]string{free: "the free list", queued: "an injection queue", streaming: "an NI's cur",
		reordered: "a reorder list", decoding: "a decode FIFO", inNetwork: "a flit"}
	state := make([]uint8, n.slots)
	mark := func(s uint32, st uint8) error {
		switch {
		case int(s) >= n.slots:
			return fmt.Errorf("cycle %d: %s names slot %d, past the %d handed out", n.Now(), where[st], s, n.slots)
		case state[s] != unseen:
			return fmt.Errorf("cycle %d: slot %d is reached on %s and on %s", n.Now(), s, where[state[s]], where[st])
		}
		state[s] = st
		return nil
	}
	// walk marks the list ref refers to and returns its length and last
	// reference, calling visit, if set, on each packet in order.
	walk := func(ref uint32, st uint8, visit func(p *Packet) error) (k int, last uint32, err error) {
		for ; ref != 0; ref = *n.link(ref - 1) {
			if err := mark(ref-1, st); err != nil {
				return k, last, err
			}
			if visit != nil {
				if err := visit(n.pkt(ref - 1)); err != nil {
					return k, last, err
				}
			}
			k, last = k+1, ref
		}
		return k, last, nil
	}
	fifoLen := func(q fifo, st uint8) (int, error) {
		k, last, err := walk(q.head, st, nil)
		if err == nil && last != q.tail {
			err = fmt.Errorf("cycle %d: %s ends at %d, its tail says %d", n.Now(), where[st], last, q.tail)
		}
		return k, err
	}
	if _, _, err := walk(n.free, free, nil); err != nil {
		return err
	}
	for _, ni := range n.nis {
		if k, err := fifoLen(ni.q, queued); err != nil {
			return err
		} else if k != ni.qlen {
			return fmt.Errorf("cycle %d: NI %d queues %d packets, qlen %d", n.Now(), ni.tile, k, ni.qlen)
		}
		if ni.cur != nil {
			if err := mark(ni.cur.slot, streaming); err != nil {
				return err
			}
		}
		pending := 0
		for src := range ni.from {
			fl := &ni.from[src]
			prev := fl.expected
			if _, _, err := walk(fl.reorder, reordered, func(p *Packet) error {
				if p.Seq <= prev {
					return fmt.Errorf("cycle %d: NI %d reorders seq %d from %d after %d (expected %d)",
						n.Now(), ni.tile, p.Seq, src, prev, fl.expected)
				}
				prev = p.Seq
				return nil
			}); err != nil {
				return err
			}
			k, err := fifoLen(fl.q, decoding)
			if err != nil {
				return err
			}
			pending += k
		}
		if pending != ni.pendingDeliveries {
			return fmt.Errorf("cycle %d: NI %d decodes %d packets, pendingDeliveries %d", n.Now(), ni.tile, pending, ni.pendingDeliveries)
		}
	}
	// stray describes what is wrong with the packet a flit names, or "".
	stray := func(f flit) string {
		switch s := f.slot(); {
		case int(s) >= n.slots:
			return fmt.Sprintf("names slot %d, past the %d handed out", s, n.slots)
		case state[s] == unseen:
			state[s] = inNetwork
		case state[s] != streaming && state[s] != inNetwork:
			return fmt.Sprintf("names slot %d, on %s", s, where[state[s]])
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
	found, freed := 0, 0
	for s, st := range state {
		switch st {
		case free:
			freed++
			continue
		case unseen:
			continue
		case streaming, inNetwork:
			if l := *n.link(uint32(s)); l != 0 {
				return fmt.Errorf("cycle %d: slot %d is on %s and links to %d", n.Now(), s, where[st], l)
			}
		}
		found++
	}
	if found != n.inFlight || found+freed != n.slots {
		return fmt.Errorf("cycle %d: found %d packets in flight and %d free of %d slots, inFlight %d",
			n.Now(), found, freed, n.slots, n.inFlight)
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
		if rt.flits != 0 {
			t.Fatalf("router %d holds %d flits after drain", ri, rt.flits)
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
