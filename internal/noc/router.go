package noc

import (
	"math/bits"

	"approxnoc/internal/obs"
	"approxnoc/internal/topology"
)

// vcState tracks the input-VC control FSM.
type vcState uint8

const (
	vcIdle    vcState = iota // waiting for a head flit
	vcRouting                // route computed, awaiting VC allocation
	vcActive                 // output VC allocated; flits may cross
)

// inputVC is one virtual-channel buffer on an input port. The buffer is a
// fixed-capacity ring sized to BufDepth at construction, so the credit
// protocol's steady state performs no allocation: push/pop reuse the same
// backing array for the lifetime of the router.
type inputVC struct {
	buf     []flit // ring storage, len == BufDepth
	head    int
	count   int
	state   vcState
	outPort topology.Direction
	outVC   int
}

// front is the oldest buffered flit; callers check count first.
func (v *inputVC) front() flit { return v.buf[v.head] }

func (v *inputVC) push(f flit) {
	i := v.head + v.count
	if i >= len(v.buf) {
		i -= len(v.buf)
	}
	v.buf[i] = f
	v.count++
}

func (v *inputVC) pop() flit {
	f := v.buf[v.head]
	if v.head++; v.head == len(v.buf) {
		v.head = 0
	}
	v.count--
	return f
}

// outputVC tracks downstream credits and wormhole ownership for one
// (output port, VC) pair.
type outputVC struct {
	credits  int
	infinite bool // ejection ports: the NI sinks flits every cycle
	owned    bool // allocated to an in-flight packet
}

func (o *outputVC) hasCredit() bool { return o.infinite || o.credits > 0 }

// maxSlots bounds ports*VCs per router: the allocators keep one request
// bit per input slot in a single machine word.
const maxSlots = 64

// router is a canonical three-stage VC router: route computation and VC
// allocation in stage 1 (consecutive cycles for a given head flit), switch
// allocation in stage 2, switch + link traversal in stage 3. Per hop a
// flit therefore spends three cycles uncontended.
//
// Input and output VCs live in flat per-router arrays indexed by
// slot = port*VCs + vc. The allocators do not scan them: each stage reads
// a request mask with one bit per input slot, kept exact at the five
// transitions that change what a slot is waiting for (acceptFlit into an
// empty buffer, RC, VA grant, SA pop to empty, SA tail pop). Round-robin
// is "first set bit at or after the pointer", so grant order is the order
// a slot-by-slot sweep from the pointer would produce.
type router struct {
	id    int
	net   *Network
	ports int
	nvc   int
	in    []inputVC  // [slot]
	out   []outputVC // [slot]
	saRR  []int      // per output port: round-robin pointer over input slots
	vaRR  []int      // per output slot: round-robin pointer over input slots

	saReq []uint64 // per output port: vcActive, non-empty slots routed to it
	vaReq []uint64 // per output port: vcRouting slots routed to it
	rcReq uint64   // vcIdle slots with a head flit at the front

	// Active-set counters gating the stages in Network.Step. A VC can only
	// hold the vcRouting state while it has a buffered head flit, so
	// routing > 0 implies flits > 0.
	flits   int // flits resident in input buffers
	routing int // input VCs in the vcRouting state (bits set across vaReq)

	// The topology answers, tabulated at construction so the per-flit path
	// divides by nothing: link[port] is the neighbour router on a mesh port
	// (-1 at the mesh edge) and the attached tile on a local port;
	// route[dstTile] is the XY output port toward a tile.
	link  []int
	route []topology.Direction
}

func newRouter(id int, net *Network) *router {
	topo := net.topo
	ports, nvc, depth := topo.Ports(), net.cfg.VCs, net.cfg.BufDepth
	slots := ports * nvc
	r := &router{
		id:    id,
		net:   net,
		ports: ports,
		nvc:   nvc,
		in:    make([]inputVC, slots),
		out:   make([]outputVC, slots),
		saRR:  make([]int, ports),
		vaRR:  make([]int, slots),
		saReq: make([]uint64, ports),
		vaReq: make([]uint64, ports),
		link:  make([]int, ports),
		route: make([]topology.Direction, topo.Tiles()),
	}
	for p := range r.link {
		d := topology.Direction(p)
		if d >= topology.Local {
			r.link[p] = topo.TileAt(id, d)
		} else if nb, ok := topo.Neighbor(id, d); ok {
			r.link[p] = nb
		} else {
			r.link[p] = -1
		}
	}
	for t := range r.route {
		r.route[t] = topo.Route(id, t)
	}
	bufs := make([]flit, slots*depth)
	for s := range r.in {
		r.in[s].buf = bufs[s*depth : (s+1)*depth : (s+1)*depth]
		r.out[s] = outputVC{credits: depth, infinite: topology.Direction(s/nvc) >= topology.Local}
	}
	return r
}

// firstFrom returns the lowest set bit of m at or after start, wrapping to
// the lowest set bit overall; m must be non-zero.
func firstFrom(m uint64, start int) int {
	if hi := m >> uint(start) << uint(start); hi != 0 {
		return bits.TrailingZeros64(hi)
	}
	return bits.TrailingZeros64(m)
}

// acceptFlit places an arriving flit into an input buffer (buffer write).
func (r *router) acceptFlit(port topology.Direction, vc int, f flit) {
	slot := int(port)*r.nvc + vc
	ivc := &r.in[slot]
	if ivc.count >= len(ivc.buf) {
		panic("noc: input buffer overflow — credit protocol violated")
	}
	if ivc.count == 0 {
		switch {
		case ivc.state == vcActive:
			r.saReq[ivc.outPort] |= 1 << uint(slot)
		case ivc.state == vcIdle && f.IsHead():
			r.rcReq |= 1 << uint(slot)
		}
	}
	ivc.push(f)
	r.flits++
	r.net.power.BufferWrites++
}

// stageSA performs switch allocation and traversal: one flit per output
// port and per input port per cycle. Credit and the input-port-busy mask
// are checked at grant time, in round-robin order from the pointer.
func (r *router) stageSA() {
	var busy uint64 // slots of input ports that already sent a flit this cycle
	for op := 0; op < r.ports && r.flits > 0; op++ {
		for cand := r.saReq[op] &^ busy; cand != 0; {
			slot := firstFrom(cand, r.saRR[op])
			bit := uint64(1) << uint(slot)
			ivc := &r.in[slot]
			ovc := &r.out[op*r.nvc+ivc.outVC]
			if !ovc.hasCredit() {
				cand &^= bit
				continue
			}
			// Grant: pop and traverse.
			f := ivc.pop()
			r.flits--
			ip := slot / r.nvc
			busy |= (1<<uint(r.nvc) - 1) << uint(ip*r.nvc) // the whole input port
			r.saRR[op] = (slot + 1) % len(r.in)
			r.net.power.BufferReads++
			r.net.power.XbarTraversals++
			r.net.power.SwitchAllocs++
			r.forward(topology.Direction(ip), slot-ip*r.nvc, topology.Direction(op), ivc.outVC, f)
			if f.IsTail() {
				ovc.owned = false
				ivc.state = vcIdle
				r.saReq[op] &^= bit
				if ivc.count > 0 && ivc.front().IsHead() {
					r.rcReq |= bit
				}
			} else if ivc.count == 0 {
				r.saReq[op] &^= bit
			}
			break // one flit per output port per cycle
		}
	}
}

// forward moves a granted flit out of the router: onto the link toward the
// neighbour, or into the local NI on an ejection port. It also returns a
// credit upstream for the freed buffer slot.
func (r *router) forward(ip topology.Direction, iv int, op topology.Direction, ov int, f flit) {
	net := r.net
	// Credit for the freed input slot goes back where the flit came from.
	if ip >= topology.Local {
		net.stageNICredit(r.link[ip], iv)
	} else if up := r.link[ip]; up >= 0 {
		net.stageCredit(up, ip.Opposite(), iv)
	}
	if op >= topology.Local {
		net.nis[r.link[op]].receiveFlit(f)
		return
	}
	next := r.link[op]
	if next < 0 {
		panic("noc: route led off the mesh")
	}
	r.out[int(op)*r.nvc+ov].credits--
	net.power.LinkTraversals++
	net.stageFlit(next, op.Opposite(), ov, f)
}

// stageVA allocates free output VCs to input VCs in the routing state,
// separable with per-(port,vc) round-robin priority: output ports and
// output VCs ascending, each free one taking the first requester at or
// after its pointer. A granted slot leaves vaReq, so it cannot win twice.
func (r *router) stageVA() {
	for op := 0; op < r.ports && r.routing > 0; op++ {
		req := r.vaReq[op]
		for ov := 0; ov < r.nvc && req != 0; ov++ {
			o := op*r.nvc + ov
			ovc := &r.out[o]
			if ovc.owned {
				continue
			}
			slot := firstFrom(req, r.vaRR[o])
			bit := uint64(1) << uint(slot)
			ivc := &r.in[slot]
			ivc.outVC = ov
			ivc.state = vcActive
			r.routing--
			ovc.owned = true
			req &^= bit
			r.saReq[op] |= bit // the head flit is still at the front
			r.vaRR[o] = (slot + 1) % len(r.in)
			r.net.power.VCAllocs++
			if r.net.tracer != nil {
				r.net.trace(obs.EvVCAlloc, r.id, r.net.packet(ivc.front()).ID, uint64(op)<<8|uint64(ov))
			}
		}
		r.vaReq[op] = req
	}
}

// stageRC computes the output port for head flits at the front of idle
// input VCs.
func (r *router) stageRC() {
	for m := r.rcReq; m != 0; m &= m - 1 {
		slot := bits.TrailingZeros64(m)
		ivc := &r.in[slot]
		ivc.outPort = r.route[r.net.packet(ivc.front()).Dst]
		ivc.state = vcRouting
		r.routing++
		r.vaReq[ivc.outPort] |= 1 << uint(slot)
	}
	r.rcReq = 0
}
