package noc

import (
	"fmt"

	"approxnoc/internal/compress"
	"approxnoc/internal/obs"
	"approxnoc/internal/sim"
	"approxnoc/internal/topology"
	"approxnoc/internal/value"
)

// stagedFlit is a flit in link traversal, landing next cycle.
type stagedFlit struct {
	router int
	port   topology.Direction
	vc     int
	flit   *Flit
}

// stagedCredit is a credit in flight back to an upstream output VC.
type stagedCredit struct {
	router int
	port   topology.Direction
	vc     int
}

// stagedNICredit is a credit in flight back to an NI's local-port pool.
type stagedNICredit struct {
	tile int
	vc   int
}

// Network is the assembled cycle-accurate NoC: routers, links and NIs with
// their per-node codecs.
//
// A Network is NOT safe for concurrent use: Step advances every router,
// link and codec in place with no locking, and the injection and stats
// methods mutate the same state. Drive a Network from exactly one
// goroutine. To serve concurrent traffic through the codec layer, use
// the serve gateway (internal/serve), whose shards each own a private
// codec pool; to parallelize whole-network studies, run independent
// Network instances (one per goroutine), as the experiment harness does.
type Network struct {
	topo  *topology.Topology
	cfg   Config
	clock sim.Clock

	routers []*router
	nis     []*NI

	flitStage     []stagedFlit
	creditStage   []stagedCredit
	niCreditStage []stagedNICredit

	// Stage-slice peak lengths since the last shrink check. The slices
	// are truncated every cycle but keep their capacity; after a burst
	// drains we periodically shrink them back so long saturation sweeps
	// don't pin peak memory.
	flitPeak     int
	creditPeak   int
	niCreditPeak int
	nextShrink   sim.Cycle

	// flitPool recycles Flit structs between ejection and the next
	// injection, keeping steady-state Step allocation-free; pktPool
	// recycles delivered Packets, payload storage included, into the next
	// send. Per-network, so they need no locking and stay deterministic.
	flitPool []*Flit
	pktPool  []*Packet
	// decoded is the block every data delivery decodes into, recycled
	// under the packet rule: valid until the delivery handlers return.
	decoded value.Block

	seq          []uint64 // next sequence number per pair, indexed src*tiles+dst
	nextPacketID uint64
	inFlight     int

	stats NetStats
	power PowerEvents

	tracer *obs.Tracer
	obs    *netObs

	onDeliver []func(p *Packet, blk *value.Block)
}

// New assembles a network over topo where every tile's NI uses the codec
// produced by codecFactory.
func New(topo *topology.Topology, cfg Config, codecFactory func(node int) compress.Codec) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if topo == nil {
		return nil, fmt.Errorf("noc: nil topology")
	}
	if slots := topo.Ports() * cfg.VCs; slots > maxSlots {
		return nil, fmt.Errorf("noc: %d ports x %d VCs = %d input VCs per router, more than the %d the allocators support",
			topo.Ports(), cfg.VCs, slots, maxSlots)
	}
	n := &Network{
		topo: topo,
		cfg:  cfg,
		seq:  make([]uint64, topo.Tiles()*topo.Tiles()),
	}
	n.routers = make([]*router, topo.Routers())
	for i := range n.routers {
		n.routers[i] = newRouter(i, n)
	}
	n.nis = make([]*NI, topo.Tiles())
	for i := range n.nis {
		n.nis[i] = newNI(n, i, codecFactory(i))
	}
	return n, nil
}

// Topology returns the network's topology.
func (n *Network) Topology() *topology.Topology { return n.topo }

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Now returns the current simulation cycle.
func (n *Network) Now() sim.Cycle { return n.clock.Now() }

// NI returns the network interface of a tile.
func (n *Network) NI(tile int) *NI { return n.nis[tile] }

// SetDeliveryHandler registers a callback invoked for every delivered
// packet, replacing any previously registered handlers; blk is the
// decompressed block for data packets, nil otherwise. Both are
// network-owned and valid only until the handlers return (see Packet): a
// handler that keeps the block clones it.
func (n *Network) SetDeliveryHandler(h func(p *Packet, blk *value.Block)) {
	n.onDeliver = []func(p *Packet, blk *value.Block){h}
}

// AddDeliveryHandler registers an additional delivery callback, keeping
// the existing ones (traffic generators chain onto user handlers).
func (n *Network) AddDeliveryHandler(h func(p *Packet, blk *value.Block)) {
	n.onDeliver = append(n.onDeliver, h)
}

// notifyDelivery fans a delivery out to every registered handler.
func (n *Network) notifyDelivery(p *Packet, blk *value.Block) {
	for _, h := range n.onDeliver {
		h(p, blk)
	}
}

// newPacket takes a packet from the recycle pool, or allocates one, and
// stamps it as the next packet of the (src, dst) pair.
func (n *Network) newPacket(src, dst int, kind PacketKind, now sim.Cycle) *Packet {
	var p *Packet
	if k := len(n.pktPool); k > 0 {
		p = n.pktPool[k-1]
		n.pktPool = n.pktPool[:k-1]
	} else {
		p = &Packet{}
	}
	key := src*len(n.nis) + dst
	p.ID, p.Src, p.Dst, p.Kind = n.nextPacketID, src, dst, kind
	p.Seq, p.CreatedAt = n.seq[key], now
	n.seq[key] = p.Seq + 1
	n.nextPacketID++
	n.stats.PacketsSent++
	n.inFlight++
	return p
}

// freePacket returns a delivered packet to the pool after its delivery
// handlers have returned. Everything but the payload storage is cleared,
// so newPacket starts from zero values.
func (n *Network) freePacket(p *Packet) {
	*p = Packet{Enc: compress.Encoded{Payload: p.Enc.Payload[:0]}}
	n.pktPool = append(n.pktPool, p)
}

// SendData queues a cache block from src to dst and returns its packet.
// The block is encoded before SendData returns and nothing of it is kept,
// so the caller may reuse it at once. The packet is network-owned (see
// Packet): valid until its delivery handlers return.
func (n *Network) SendData(src, dst int, blk *value.Block) (*Packet, error) {
	if err := n.checkPair(src, dst); err != nil {
		return nil, err
	}
	return n.nis[src].enqueueData(dst, blk, n.clock.Now()), nil
}

// SendControl queues a single-flit control packet from src to dst.
func (n *Network) SendControl(src, dst int) (*Packet, error) {
	if err := n.checkPair(src, dst); err != nil {
		return nil, err
	}
	return n.nis[src].enqueueControl(dst, n.clock.Now()), nil
}

func (n *Network) checkPair(src, dst int) error {
	t := n.topo.Tiles()
	if src < 0 || src >= t || dst < 0 || dst >= t {
		return fmt.Errorf("noc: tile pair (%d,%d) outside [0,%d)", src, dst, t)
	}
	if src == dst {
		return fmt.Errorf("noc: self-addressed packet at tile %d", src)
	}
	return nil
}

// Stage-slice capacity management: slices are truncated in place every
// cycle; every stageShrinkInterval cycles any slice whose capacity is
// more than 4x the interval's peak occupancy is reallocated down.
const (
	stageShrinkInterval = 4096
	stageMinCap         = 64
)

func shrinkStaged[T any](s []T, peak int) []T {
	if cap(s) <= stageMinCap || peak*4 >= cap(s) {
		return s
	}
	newCap := peak * 2
	if newCap < stageMinCap {
		newCap = stageMinCap
	}
	return make([]T, 0, newCap)
}

// Step advances the simulation one cycle.
//
// Routers and NIs are gated on their active-set counters and request
// masks: a stage is only entered when it has work (buffered flits, VCs
// awaiting allocation or routing, queued packets, pending decodes). The gates skip provable no-ops, so
// results are bit-identical to an exhaustive sweep, but near-idle cycles
// — the common case in low-injection sweeps — cost O(active tiles)
// instead of O(all tiles).
func (n *Network) Step() {
	now := n.clock.Now()
	n.landArrivals(now)

	// Router pipeline, processed back to front so a flit moves through one
	// stage per cycle. A router with no buffered flits has nothing to
	// switch, and routing > 0 or rcReq != 0 requires a buffered head flit.
	for _, r := range n.routers {
		if r.flits > 0 {
			r.stageSA()
		}
	}
	for _, r := range n.routers {
		if r.routing > 0 {
			r.stageVA()
		}
	}
	for _, r := range n.routers {
		if r.rcReq != 0 {
			r.stageRC()
		}
	}

	n.stepNIs(now)
}

// landArrivals delivers the flits and credits staged last cycle
// (link/credit delay = 1) and runs the periodic stage-slice shrink check.
func (n *Network) landArrivals(now sim.Cycle) {
	if len(n.flitStage) > n.flitPeak {
		n.flitPeak = len(n.flitStage)
	}
	for _, s := range n.flitStage {
		n.routers[s.router].acceptFlit(s.port, s.vc, s.flit)
	}
	n.flitStage = n.flitStage[:0]
	if len(n.creditStage) > n.creditPeak {
		n.creditPeak = len(n.creditStage)
	}
	for _, c := range n.creditStage {
		r := n.routers[c.router]
		r.out[int(c.port)*r.nvc+c.vc].credits++
	}
	n.creditStage = n.creditStage[:0]
	if len(n.niCreditStage) > n.niCreditPeak {
		n.niCreditPeak = len(n.niCreditStage)
	}
	for _, c := range n.niCreditStage {
		n.nis[c.tile].credits[c.vc]++
	}
	n.niCreditStage = n.niCreditStage[:0]
	if now >= n.nextShrink {
		n.flitStage = shrinkStaged(n.flitStage, n.flitPeak)
		n.creditStage = shrinkStaged(n.creditStage, n.creditPeak)
		n.niCreditStage = shrinkStaged(n.niCreditStage, n.niCreditPeak)
		n.flitPeak, n.creditPeak, n.niCreditPeak = 0, 0, 0
		n.nextShrink = now + stageShrinkInterval
	}
}

// stepNIs injects, completes decodes and ends the cycle.
func (n *Network) stepNIs(now sim.Cycle) {
	for _, ni := range n.nis {
		if ni.cur != nil || len(ni.queue) > ni.qhead {
			ni.inject(now)
		}
	}
	for _, ni := range n.nis {
		if ni.pendingDeliveries > 0 {
			ni.processDeliveries(now)
		}
	}

	n.clock.Tick()
	if n.obs != nil && n.clock.Now()%n.obs.every == 0 {
		n.publishObs()
	}
}

// Run advances the simulation by the given number of cycles.
func (n *Network) Run(cycles int) {
	for i := 0; i < cycles; i++ {
		n.Step()
	}
}

// Drain runs until every queued and in-flight packet is delivered, or
// maxCycles elapse. It reports whether the network fully drained.
func (n *Network) Drain(maxCycles int) bool {
	for i := 0; i < maxCycles; i++ {
		if n.Quiescent() {
			return true
		}
		n.Step()
	}
	return n.Quiescent()
}

// Quiescent reports whether no packets, flits, or in-flight credits
// remain anywhere in the network.
func (n *Network) Quiescent() bool {
	if n.inFlight != 0 || len(n.flitStage) != 0 {
		return false
	}
	if len(n.creditStage) != 0 || len(n.niCreditStage) != 0 {
		return false
	}
	for _, ni := range n.nis {
		if ni.pendingWork() {
			return false
		}
	}
	for _, r := range n.routers {
		if r.bufferedFlits() != 0 {
			return false
		}
	}
	return true
}

// InFlight returns the number of packets sent but not yet delivered.
func (n *Network) InFlight() int { return n.inFlight }

// Stats returns a snapshot of network statistics with Cycles filled in.
func (n *Network) Stats() NetStats {
	s := n.stats
	s.Cycles = uint64(n.clock.Now())
	return s
}

// Power returns the accumulated microarchitectural event counts.
func (n *Network) Power() PowerEvents { return n.power }

// CodecStats aggregates codec operation counts across all NIs.
func (n *Network) CodecStats() compress.OpStats {
	var s compress.OpStats
	for _, ni := range n.nis {
		s.Add(ni.codec.Stats())
	}
	return s
}

// stageFlit schedules a flit to arrive at a router input next cycle.
func (n *Network) stageFlit(router int, port topology.Direction, vc int, f *Flit) {
	n.flitStage = append(n.flitStage, stagedFlit{router: router, port: port, vc: vc, flit: f})
}

// stageCredit schedules a credit return to a router output next cycle.
func (n *Network) stageCredit(router int, port topology.Direction, vc int) {
	n.creditStage = append(n.creditStage, stagedCredit{router: router, port: port, vc: vc})
}

// stageNICredit schedules a credit return to an NI next cycle.
func (n *Network) stageNICredit(tile, vc int) {
	n.niCreditStage = append(n.niCreditStage, stagedNICredit{tile: tile, vc: vc})
}

// allocFlit takes a flit from the recycle pool, or allocates one.
func (n *Network) allocFlit() *Flit {
	if len(n.flitPool) == 0 {
		return &Flit{}
	}
	f := n.flitPool[len(n.flitPool)-1]
	n.flitPool = n.flitPool[:len(n.flitPool)-1]
	return f
}

// freeFlit returns an ejected flit to the pool. Callers must guarantee no
// live reference remains — the router calls it right after the NI sinks
// the flit, and receiveFlit keeps only the Packet.
func (n *Network) freeFlit(f *Flit) {
	f.Packet = nil
	n.flitPool = append(n.flitPool, f)
}
