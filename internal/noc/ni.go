package noc

import (
	"math/bits"

	"approxnoc/internal/compress"
	"approxnoc/internal/obs"
	"approxnoc/internal/sim"
	"approxnoc/internal/topology"
	"approxnoc/internal/value"
)

// delivery is a packet in the NI's post-ejection decode pipeline.
type delivery struct {
	p       *Packet
	readyAt sim.Cycle
}

// srcFlow is the ejection-side state an NI keeps per source tile.
type srcFlow struct {
	expected uint64             // next sequence number
	reorder  map[uint64]*Packet // ejected ahead of sequence; made on first use
	q        []delivery         // in-order decode FIFO
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

	// Injection side. The queue is consumed through qhead instead of
	// re-slicing so the backing array is reused; it is compacted when the
	// dead prefix dominates.
	queue   []*Packet
	qhead   int
	cur     *Packet
	curFl   []*Flit // reused flit scratch for the streaming packet
	curIdx  int
	curVC   int
	credits []int
	nextVC  int

	// Ejection side, indexed by source tile. decoding has one bit per
	// source whose decode FIFO is non-empty, so processDeliveries visits
	// only those; pendingDeliveries counts the entries across them so Step
	// can skip NIs with nothing to decode.
	from              []srcFlow
	decoding          []uint64
	pendingDeliveries int
}

func newNI(net *Network, tile int, codec compress.Codec) *NI {
	ni := &NI{
		net:      net,
		tile:     tile,
		codec:    codec,
		router:   net.topo.RouterOf(tile),
		port:     net.topo.LocalPortOf(tile),
		curVC:    -1,
		credits:  make([]int, net.cfg.VCs),
		from:     make([]srcFlow, net.topo.Tiles()),
		decoding: make([]uint64, (net.topo.Tiles()+63)/64),
	}
	for v := range ni.credits {
		ni.credits[v] = net.cfg.BufDepth
	}
	return ni
}

// Codec exposes the node's compression engine.
func (ni *NI) Codec() compress.Codec { return ni.codec }

// QueueLen returns the injection queue occupancy (including the packet
// currently streaming flits).
func (ni *NI) QueueLen() int {
	n := len(ni.queue) - ni.qhead
	if ni.cur != nil {
		n++
	}
	return n
}

// popQueue removes and returns the queue head, compacting the backing
// array once the consumed prefix dominates it.
func (ni *NI) popQueue() *Packet {
	p := ni.queue[ni.qhead]
	ni.queue[ni.qhead] = nil
	ni.qhead++
	switch {
	case ni.qhead == len(ni.queue):
		ni.queue = ni.queue[:0]
		ni.qhead = 0
	case ni.qhead >= 32 && ni.qhead*2 >= len(ni.queue):
		n := copy(ni.queue, ni.queue[ni.qhead:])
		ni.queue = ni.queue[:n]
		ni.qhead = 0
	}
	return p
}

// buildFlits fragments the packet into the NI's reusable flit scratch,
// drawing Flit structs from the network's recycle pool.
func (ni *NI) buildFlits(p *Packet) {
	ni.curFl = ni.curFl[:0]
	for i := 0; i < p.Flits; i++ {
		t := BodyFlit
		switch {
		case p.Flits == 1:
			t = HeadTailFlit
		case i == 0:
			t = HeadFlit
		case i == p.Flits-1:
			t = TailFlit
		}
		f := ni.net.allocFlit()
		f.Type, f.Seq, f.Packet = t, i, p
		ni.curFl = append(ni.curFl, f)
	}
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
	ni.queue = append(ni.queue, p)
	return p
}

// enqueueControl queues a single-flit control packet.
func (ni *NI) enqueueControl(dst int, now sim.Cycle) *Packet {
	p := ni.net.newPacket(ni.tile, dst, ControlPacket, now)
	p.Flits = 1
	p.ReadyAt = now
	ni.queue = append(ni.queue, p)
	return p
}

// enqueueNotif queues a dictionary protocol message as a single-flit
// control packet.
func (ni *NI) enqueueNotif(n compress.Notification, now sim.Cycle) *Packet {
	p := ni.net.newPacket(ni.tile, n.To, NotifPacket, now)
	p.Notif = n
	p.Flits = 1
	p.ReadyAt = now
	ni.queue = append(ni.queue, p)
	return p
}

// inject pushes at most one flit per cycle into the router's local input
// port, subject to credits.
func (ni *NI) inject(now sim.Cycle) {
	if ni.cur == nil {
		if len(ni.queue) == ni.qhead {
			return
		}
		head := ni.queue[ni.qhead]
		if head.ReadyAt == 0 && head.Kind == DataPacket && head.Enc.Scheme != compress.Baseline {
			// OverlapQueueing off: compression starts at the queue head.
			head.ReadyAt = now + sim.Cycle(ni.net.cfg.effectiveCompressLatencyFor(head.Enc.NumWords))
		}
		if head.ReadyAt > now {
			return
		}
		ni.popQueue()
		ni.cur = head
		ni.buildFlits(head)
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
	f := ni.curFl[ni.curIdx]
	ni.credits[ni.curVC]--
	if ni.curIdx == 0 {
		ni.cur.InjectedAt = now
	}
	ni.net.stats.FlitsInjected++
	if ni.cur.Kind == DataPacket {
		ni.net.stats.DataFlitsInjected++
	}
	ni.net.stageFlit(ni.router, ni.port, ni.curVC, f)
	if ni.net.tracer != nil {
		ni.net.trace(obs.EvFlitInject, ni.tile, ni.cur.ID, uint64(ni.curIdx))
	}
	ni.curIdx++
	if ni.curIdx == len(ni.curFl) {
		// Keep curFl's capacity for the next packet; the in-flight flits
		// are owned by the network until ejection.
		ni.cur, ni.curVC = nil, -1
		ni.curFl = ni.curFl[:0]
	}
}

// receiveFlit accepts an ejected flit from the router. Tail arrival
// completes the packet and enters it into the ordered decode pipeline.
func (ni *NI) receiveFlit(f *Flit) {
	ni.net.stats.FlitsEjected++
	if ni.net.tracer != nil {
		ni.net.trace(obs.EvFlitEject, ni.tile, f.Packet.ID, 0)
	}
	if !f.IsTail() {
		return
	}
	now := ni.net.clock.Now()
	p := f.Packet
	p.EjectedAt = now
	fl := &ni.from[p.Src]
	if p.Seq != fl.expected {
		if fl.reorder == nil {
			fl.reorder = make(map[uint64]*Packet)
		}
		fl.reorder[p.Seq] = p
		return
	}
	// Release p and every packet it unblocks into the decode FIFO.
	ni.decoding[p.Src/64] |= 1 << uint(p.Src%64)
	for {
		fl.expected++
		fl.q = append(fl.q, delivery{p: p, readyAt: now + ni.decodeLatency(p)})
		ni.pendingDeliveries++
		next, ok := fl.reorder[fl.expected]
		if !ok {
			return
		}
		delete(fl.reorder, fl.expected)
		p = next
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
			q := fl.q
			n := 0
			for n < len(q) && q[n].readyAt <= now {
				ni.deliver(q[n].p, now)
				n++
			}
			if n > 0 {
				// Compact in place so the backing array is reused instead of
				// advancing the slice start and reallocating on append.
				fl.q = q[:copy(q, q[n:])]
				ni.pendingDeliveries -= n
				if len(fl.q) == 0 {
					ni.decoding[w] &^= 1 << uint(b)
				}
			}
		}
	}
}

// deliver completes a packet at this tile and, once every delivery
// handler has returned, recycles it.
func (ni *NI) deliver(p *Packet, now sim.Cycle) {
	p.DeliveredAt = now
	ni.net.stats.recordDelivery(p)
	ni.net.inFlight--
	switch p.Kind {
	case DataPacket:
		blk, notifs := ni.codec.Decompress(p.Src, &p.Enc)
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

// pendingWork reports whether the NI still holds undelivered state.
func (ni *NI) pendingWork() bool {
	if len(ni.queue) > ni.qhead || ni.cur != nil || ni.pendingDeliveries > 0 {
		return true
	}
	for i := range ni.from {
		if len(ni.from[i].reorder) > 0 {
			return true
		}
	}
	return false
}
