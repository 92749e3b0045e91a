package traffic

import (
	"fmt"

	"approxnoc/internal/noc"
	"approxnoc/internal/sim"
	"approxnoc/internal/value"
	"approxnoc/internal/workload"
)

// ReqReply drives the network with coherence-shaped traffic: a requester
// sends a single-flit control request (a read miss) to a home tile, and
// the home answers with a data reply carrying a cache block — the
// request/reply structure §3 describes for NoC traffic. Reply injection
// happens when the request is delivered, so reply latency includes the
// full round trip, as in a real memory hierarchy.
type ReqReply struct {
	net  *noc.Network
	rng  *sim.Rand
	src  *workload.Source
	rate sim.Odds // of a request per tile per cycle
	sent uint64
	blk  value.Block // refilled for every reply; SendData keeps none of it
}

// NewReqReply builds a request/reply injector. rate is the per-tile
// request probability per cycle; source supplies reply payloads.
func NewReqReply(net *noc.Network, rate float64, source *workload.Source, seed uint64) (*ReqReply, error) {
	if rate <= 0 || rate > 1 {
		return nil, fmt.Errorf("traffic: request rate %g outside (0,1]", rate)
	}
	if source == nil {
		return nil, fmt.Errorf("traffic: nil workload source")
	}
	rr := &ReqReply{net: net, rng: sim.NewRand(seed), src: source, rate: sim.NewOdds(rate)}
	// Chain onto the network's delivery path: every delivered control
	// packet is treated as a read request and answered with a data block.
	net.AddDeliveryHandler(func(p *noc.Packet, blk *value.Block) {
		if p.Kind != noc.ControlPacket {
			return
		}
		// A delivered packet's endpoints are a valid pair, so the
		// reversed send cannot be rejected.
		_, _ = net.SendData(p.Dst, p.Src, rr.src.NextBlockInto(&rr.blk))
	})
	return rr, nil
}

// Sent returns the number of requests issued.
func (rr *ReqReply) Sent() uint64 { return rr.sent }

// Tick issues this cycle's requests. Call once per network Step.
func (rr *ReqReply) Tick() {
	tiles := rr.net.Topology().Tiles()
	for tile := 0; tile < tiles; tile++ {
		if !rr.rng.Hit(rr.rate) {
			continue
		}
		// Home is address-interleaved: uniform over the other tiles.
		home := rr.rng.Intn(tiles)
		if home == tile {
			continue
		}
		if _, err := rr.net.SendControl(tile, home); err == nil {
			rr.sent++
		}
	}
}

// RunReqReply drives the network with request/reply traffic and returns
// the resulting statistics.
func RunReqReply(net *noc.Network, rr *ReqReply, cycles int) RunResult {
	for i := 0; i < cycles; i++ {
		rr.Tick()
		net.Step()
	}
	net.Drain(cycles * 10)
	s := net.Stats()
	return RunResult{Cycles: cycles, Sent: rr.Sent(), Delivered: s.PacketsDelivered, Stats: s}
}
