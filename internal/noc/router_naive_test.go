package noc

import (
	"approxnoc/internal/obs"
	"approxnoc/internal/topology"
)

// The reference allocators: the exhaustive slot-by-slot sweeps the request
// masks replaced, reading nothing but VC state. They leave the masks and
// the routing counter alone (acceptFlit still sets bits on a network
// stepped this way; nothing here reads them), so agreement with Step shows
// that the masks select exactly what a sweep would. The differential test
// in router_diff_test.go holds Step to StepNaive.

// StepNaive is Step with every router swept by the reference allocators,
// ungated.
func (n *Network) StepNaive() {
	now := n.clock.Now()
	n.landArrivals()
	for _, r := range n.routers {
		r.stageSANaive()
	}
	for _, r := range n.routers {
		r.stageVANaive()
	}
	for _, r := range n.routers {
		r.stageRCNaive()
	}
	n.stepNIs(now)
}

func (r *router) stageSANaive() {
	inputBusy := make([]bool, r.ports) // one crossbar input per port per cycle
	nvc := r.nvc
	total := r.ports * nvc
	for op := 0; op < r.ports; op++ {
		start := r.saRR[op]
		for k := 0; k < total; k++ {
			slot := (start + k) % total
			ip, iv := slot/nvc, slot%nvc
			if inputBusy[ip] {
				continue
			}
			ivc := &r.in[slot]
			if ivc.count == 0 || ivc.state != vcActive || int(ivc.outPort) != op {
				continue
			}
			ovc := &r.out[op*nvc+ivc.outVC]
			if !ovc.hasCredit() {
				continue
			}
			f := ivc.pop()
			r.flits--
			inputBusy[ip] = true
			r.saRR[op] = (slot + 1) % total
			r.net.power.BufferReads++
			r.net.power.XbarTraversals++
			r.net.power.SwitchAllocs++
			r.forward(topology.Direction(ip), iv, topology.Direction(op), ivc.outVC, f)
			if f.IsTail() {
				ovc.owned = false
				ivc.state = vcIdle
			}
			break // one flit per output port per cycle
		}
	}
}

// A VC granted earlier in the pass is vcActive by the time a later output
// VC sweeps past it, so the state test alone keeps it from winning twice.
func (r *router) stageVANaive() {
	nvc := r.nvc
	total := r.ports * nvc
	for op := 0; op < r.ports; op++ {
		for ov := 0; ov < nvc; ov++ {
			ovc := &r.out[op*nvc+ov]
			if ovc.owned {
				continue
			}
			start := r.vaRR[op*nvc+ov]
			for k := 0; k < total; k++ {
				slot := (start + k) % total
				ivc := &r.in[slot]
				if ivc.state != vcRouting || int(ivc.outPort) != op {
					continue
				}
				ivc.outVC = ov
				ivc.state = vcActive
				ovc.owned = true
				r.vaRR[op*nvc+ov] = (slot + 1) % total
				r.net.power.VCAllocs++
				if r.net.tracer != nil {
					r.net.trace(obs.EvVCAlloc, r.id, r.net.packet(ivc.front()).ID, uint64(op)<<8|uint64(ov))
				}
				break
			}
		}
	}
}

func (r *router) stageRCNaive() {
	for slot := range r.in {
		ivc := &r.in[slot]
		if ivc.state != vcIdle {
			continue
		}
		if ivc.count == 0 || !ivc.front().IsHead() {
			continue
		}
		ivc.outPort = r.net.topo.Route(r.id, r.net.packet(ivc.front()).Dst)
		ivc.state = vcRouting
	}
}
