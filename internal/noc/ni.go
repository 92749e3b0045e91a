package noc

import (
	"math/bits"

	"approxnoc/internal/compress"
	"approxnoc/internal/obs"
	"approxnoc/internal/sim"
	"approxnoc/internal/topology"
	"approxnoc/internal/value"
)

// srcFlow is the ejection-side state an NI keeps per source tile. Both
// lists thread through the slab links (see slab).
type srcFlow struct {
	expected uint64 // next sequence number
	reorder  uint32 // ejected ahead of sequence, in ascending Seq
	q        fifo   // in-order decode FIFO, each packet's DeliveredAt its decode-ready cycle
}

// NI is a network interface: it packetizes and compresses departing
// traffic, fragments packets into flits, injects them into its router's
// local port, and on the receive side assembles flits, enforces
// per-(source,destination) ordering, and decompresses data packets.
type NI struct {
	net   *Network
	tile  int
	codec compress.Codec

	// router and port are where this tile injects: its router's local port.
	router int
	port   topology.Direction

	// Injection side: the queue threads through the slab links and holds
	// qlen packets.
	q       fifo
	qlen    int
	cur     *Packet
	curIdx  int // the next flit of cur to inject
	curVC   int
	credits []int
	nextVC  int

	// Ejection side, indexed by source tile. decoding has one bit per
	// source whose decode FIFO is non-empty, so processDeliveries visits
	// only those; pendingDeliveries counts the entries across them, and
	// stepNIs stops visiting the NI when it reaches 0.
	from              []srcFlow
	decoding          []uint64
	pendingDeliveries int
}

// newNI allocates an NI's tables for net's shape; init fills them.
func newNI(net *Network) *NI {
	return &NI{
		credits:  make([]int, net.cfg.VCs),
		from:     make([]srcFlow, net.topo.Tiles()),
		decoding: make([]uint64, (net.topo.Tiles()+63)/64),
	}
}

// init makes ni the empty NI of tile in net, using codec, on tables
// newNI sized for net's shape: a new NI and a released one leave it alike.
func (ni *NI) init(net *Network, tile int, codec compress.Codec) {
	*ni = NI{
		net:      net,
		tile:     tile,
		codec:    codec,
		router:   net.topo.RouterOf(tile),
		port:     net.topo.LocalPortOf(tile),
		curVC:    -1,
		credits:  ni.credits,
		from:     ni.from,
		decoding: ni.decoding,
	}
	for v := range ni.credits {
		ni.credits[v] = net.cfg.BufDepth
	}
	clear(ni.from)
	clear(ni.decoding)
}

// Codec exposes the node's compression engine.
func (ni *NI) Codec() compress.Codec { return ni.codec }

// QueueLen returns the injection queue occupancy (including the packet
// currently streaming flits).
func (ni *NI) QueueLen() int {
	n := ni.qlen
	if ni.cur != nil {
		n++
	}
	return n
}

// enqueue appends p to the injection queue and marks the tile sending.
func (ni *NI) enqueue(p *Packet) *Packet {
	ni.net.push(&ni.q, p.slot)
	ni.qlen++
	setBit(ni.net.sending, ni.tile)
	return p
}

// enqueueData packetizes and compresses a cache block bound for dst.
// Compression happens at enqueue: the NI queue is FIFO and delivery is
// per-pair in-order, so dictionary state seen by the encoder stays
// consistent with what the decoder will hold at decode time. The packet
// stays in flight across later encodes at this NI, so it takes the
// codec-owned encoding's header and a copy of its payload into storage
// the packet keeps across reuse.
func (ni *NI) enqueueData(dst int, blk *value.Block, now sim.Cycle) *Packet {
	var approxBefore uint64
	if ni.net.tracer != nil {
		approxBefore = ni.codec.Stats().WordsApprox
	}
	enc := ni.codec.Compress(dst, blk)
	p := ni.net.newPacket(ni.tile, dst, DataPacket, now)
	if ni.net.tracer != nil {
		ni.net.trace(obs.EvCompress, ni.tile, p.ID, uint64(enc.Bits))
		if approxWords := ni.codec.Stats().WordsApprox - approxBefore; approxWords > 0 {
			ni.net.trace(obs.EvApproxHit, ni.tile, p.ID, approxWords)
		}
	}
	if cap(p.Enc.Payload) == 0 {
		ni.net.carve(p)
	}
	payload := append(p.Enc.Payload[:0], enc.Payload...)
	p.Enc = *enc
	p.Enc.Payload = payload
	p.Flits = ni.net.cfg.dataPacketFlits(enc.PayloadBytes())
	p.ReadyAt = now
	if enc.Scheme != compress.Baseline {
		if ni.net.cfg.OverlapQueueing {
			p.ReadyAt = now + sim.Cycle(ni.net.cfg.effectiveCompressLatencyFor(enc.NumWords))
		} else {
			p.ReadyAt = 0 // assigned when the packet reaches the queue head
		}
	}
	return ni.enqueue(p)
}

// enqueueControl queues a single-flit control packet.
func (ni *NI) enqueueControl(dst int, now sim.Cycle) *Packet {
	p := ni.net.newPacket(ni.tile, dst, ControlPacket, now)
	p.Flits = 1
	p.ReadyAt = now
	return ni.enqueue(p)
}

// enqueueNotif queues a dictionary protocol message as a single-flit
// control packet.
func (ni *NI) enqueueNotif(n compress.Notification, now sim.Cycle) *Packet {
	p := ni.net.newPacket(ni.tile, n.To, NotifPacket, now)
	p.Notif = n
	p.Flits = 1
	p.ReadyAt = now
	return ni.enqueue(p)
}

// inject pushes at most one flit per cycle into the router's local input
// port, subject to credits, building flit curIdx of the streaming packet
// as it goes. stepNIs calls it only while the tile is sending.
func (ni *NI) inject(now sim.Cycle) {
	if ni.cur == nil {
		head := ni.net.pkt(ni.q.head - 1)
		if head.ReadyAt == 0 && head.Kind == DataPacket && head.Enc.Scheme != compress.Baseline {
			// OverlapQueueing off: compression starts at the queue head.
			head.ReadyAt = now + sim.Cycle(ni.net.cfg.effectiveCompressLatencyFor(head.Enc.NumWords))
		}
		if head.ReadyAt > now {
			return
		}
		ni.net.pop(&ni.q)
		ni.qlen--
		ni.cur = head
		ni.curIdx = 0
		ni.curVC = -1
	}
	if ni.curVC < 0 {
		for i := 0; i < ni.net.cfg.VCs; i++ {
			v := (ni.nextVC + i) % ni.net.cfg.VCs
			if ni.credits[v] > 0 {
				ni.curVC = v
				ni.nextVC = (v + 1) % ni.net.cfg.VCs
				break
			}
		}
		if ni.curVC < 0 {
			return // no credits on any VC
		}
	}
	if ni.credits[ni.curVC] == 0 {
		return
	}
	ni.credits[ni.curVC]--
	if ni.curIdx == 0 {
		ni.cur.InjectedAt = now
	}
	ni.net.stats.FlitsInjected++
	if ni.cur.Kind == DataPacket {
		ni.net.stats.DataFlitsInjected++
	}
	ni.net.stageFlit(ni.router, ni.port, ni.curVC, makeFlit(ni.cur.slot, ni.curIdx, ni.cur.Flits))
	if ni.net.tracer != nil {
		ni.net.trace(obs.EvFlitInject, ni.tile, ni.cur.ID, uint64(ni.curIdx))
	}
	ni.curIdx++
	if ni.curIdx == ni.cur.Flits {
		ni.cur, ni.curVC = nil, -1
	}
}

// receiveFlit accepts an ejected flit from the router. Tail arrival
// completes the packet and enters it into the ordered decode pipeline.
func (ni *NI) receiveFlit(f flit) {
	ni.net.stats.FlitsEjected++
	if ni.net.tracer != nil {
		ni.net.trace(obs.EvFlitEject, ni.tile, ni.net.packet(f).ID, 0)
	}
	if !f.IsTail() {
		return
	}
	now := ni.net.clock.Now()
	p := ni.net.packet(f)
	p.EjectedAt = now
	fl := &ni.from[p.Src]
	if p.Seq != fl.expected {
		ni.net.insertBySeq(&fl.reorder, p)
		return
	}
	// Release p and every packet it unblocks into the decode FIFO.
	setBit(ni.decoding, p.Src)
	setBit(ni.net.decoding, ni.tile)
	for {
		fl.expected++
		p.DeliveredAt = now + ni.decodeLatency(p)
		ni.net.push(&fl.q, p.slot)
		ni.pendingDeliveries++
		if fl.reorder == 0 || ni.net.pkt(fl.reorder-1).Seq != fl.expected {
			return
		}
		p = ni.net.unlink(&fl.reorder)
	}
}

func (ni *NI) decodeLatency(p *Packet) sim.Cycle {
	// Keyed off the packet's own scheme, not the codec's: the adaptive
	// controller emits baseline-form packets when compression is off, and
	// those need no decode stage.
	if p.Kind == DataPacket && p.Enc.Scheme != compress.Baseline {
		return sim.Cycle(ni.net.cfg.DecompressLatency)
	}
	return 0
}

// processDeliveries completes decodes whose latency elapsed, preserving
// per-source order. Sources are visited in index order so the simulation
// stays deterministic.
func (ni *NI) processDeliveries(now sim.Cycle) {
	for w, m := range ni.decoding {
		for ; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			fl := &ni.from[w*64+b]
			for fl.q.head != 0 && ni.net.pkt(fl.q.head-1).DeliveredAt <= now {
				ni.pendingDeliveries--
				ni.deliver(ni.net.pop(&fl.q), now)
			}
			if fl.q.head == 0 {
				ni.decoding[w] &^= 1 << uint(b)
			}
		}
	}
}

// deliver completes a packet at this tile and, once every delivery
// handler has returned, recycles it. A data packet decodes into the
// network's one delivery block; its notifications queue before handlers run.
func (ni *NI) deliver(p *Packet, now sim.Cycle) {
	p.DeliveredAt = now
	ni.net.stats.recordDelivery(p)
	ni.net.inFlight--
	switch p.Kind {
	case DataPacket:
		blk := &ni.net.decoded
		notifs := ni.codec.DecompressInto(blk, p.Src, &p.Enc)
		if ni.net.tracer != nil {
			ni.net.trace(obs.EvDecompress, ni.tile, p.ID, uint64(len(notifs)))
		}
		for _, n := range notifs {
			ni.enqueueNotif(n, now)
		}
		ni.net.notifyDelivery(p, blk)
	case NotifPacket:
		if ni.net.tracer != nil && p.Notif.Kind == compress.NotifUpdate {
			ni.net.trace(obs.EvPMTUpdate, ni.tile, uint64(p.Notif.Index), uint64(p.Notif.Pattern))
		}
		for _, reply := range ni.codec.HandleNotification(p.Notif) {
			ni.enqueueNotif(reply, now)
		}
		ni.net.notifyDelivery(p, nil)
	default:
		ni.net.notifyDelivery(p, nil)
	}
	ni.net.freePacket(p)
}
