package noc

import (
	"fmt"
	"math/bits"

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
	flit   flit
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

	body

	// The first slots of the slabs are handed out; free lists the
	// delivered ones, which newPacket reuses, payload storage included,
	// before it hands out a new slot.
	slots    int
	free     uint32 // list reference, see slab
	released bool
	// decoded is the block every data delivery decodes into, recycled
	// under the packet rule: valid until the delivery handlers return.
	decoded value.Block

	nextPacketID uint64
	inFlight     int

	stats NetStats
	power PowerEvents

	tracer *obs.Tracer
	obs    *netObs

	onDeliver []func(p *Packet, blk *value.Block)

	// arena built the network, nil for New; lent lists the codecs its
	// factories made for it, which Release gives back to it.
	arena *Arena
	lent  []compress.Codec
}

// body is the storage a network's shape sizes: what Release hands to the
// next network its arena builds, so a driver that runs network after
// network builds each shape once. Per-network while in use, so none of it
// needs locking.
type body struct {
	routers []*router
	nis     []*NI

	// Link and credit traversals landing next cycle, truncated every
	// cycle. A cycle stages at most one flit per router output port or NI
	// and one credit per input port, so New sizes each to
	// Routers()*Ports() and they never grow.
	flitStage     []stagedFlit
	creditStage   []stagedCredit
	niCreditStage []stagedNICredit

	// One bit per tile, so stepNIs visits only NIs with work: sending
	// while the injection queue or the streaming packet is non-empty,
	// decoding while the NI has deliveries pending.
	sending  []uint64
	decoding []uint64

	seq []uint64 // next sequence number per pair, indexed src*tiles+dst

	// Packets live in slabs, which fit any shape. Those in use are
	// slabs[:len]; past len, up to the first nil, lie clean ones a
	// released network left, which newPacket takes before it makes one.
	slabs []*slab
}

// Arena is what the networks one goroutine builds one after another
// reuse: the last network released into it, still carrying its body, and
// the codecs released networks gave back, by scheme. The zero Arena is
// empty. It is NOT safe for concurrent use: one goroutine owns it, as
// each worker of the experiment runner owns one.
type Arena struct {
	last  *Network
	spare [compress.BDVaxx + 1][]compress.Codec // by scheme
	lent  []compress.Codec                      // made for the network a.New builds next
}

// New assembles a network over topo where every tile's NI uses the codec
// produced by codecFactory. Everything it holds is new.
func New(topo *topology.Topology, cfg Config, codecFactory func(node int) compress.Codec) (*Network, error) {
	return (*Arena)(nil).New(topo, cfg, codecFactory)
}

// Factory is compress.FactoryWithDict on a's spare codecs of scheme, when
// it holds any. Its codecs belong to the next network a.New builds.
func (a *Arena) Factory(scheme compress.Scheme, cfg compress.DictConfig, thresholdPct int) (func(node int) compress.Codec, error) {
	mk, err := compress.Maker(scheme, cfg, thresholdPct)
	if err != nil {
		return nil, err
	}
	return func(node int) compress.Codec {
		var old compress.Codec
		if s := a.spare[scheme]; len(s) > 0 {
			old, a.spare[scheme] = s[len(s)-1], s[:len(s)-1]
		}
		c := mk(old, node)
		if c != nil {
			a.lent = append(a.lent, c)
		}
		return c
	}, nil
}

// New is noc.New on a's storage, or noc.New itself when a is nil: the
// network is built on the body of the network last released into a, on
// its slabs always, and on the rest when the two share topology, VCs and
// BufDepth. Release gives the body and the codecs a's factories made for
// it back to a.
func (a *Arena) New(topo *topology.Topology, cfg Config, codecFactory func(node int) compress.Codec) (*Network, error) {
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
	n := &Network{topo: topo, cfg: cfg, arena: a}
	if a != nil && a.last != nil {
		old := a.last
		if *old.topo == *topo && old.cfg.VCs == cfg.VCs && old.cfg.BufDepth == cfg.BufDepth {
			n.body = old.body
		} else {
			n.slabs = old.slabs
		}
		old.body, a.last = body{}, nil
	}
	if n.routers == nil {
		n.build()
	}
	for i, r := range n.routers {
		r.init(i, n)
	}
	for i, ni := range n.nis {
		codec := codecFactory(i)
		if codec == nil {
			return nil, fmt.Errorf("noc: codec factory made no codec for tile %d", i)
		}
		ni.init(n, i, codec)
	}
	if a != nil {
		n.lent, a.lent = a.lent, nil
	}
	n.flitStage, n.creditStage, n.niCreditStage = n.flitStage[:0], n.creditStage[:0], n.niCreditStage[:0]
	clear(n.sending)
	clear(n.decoding)
	clear(n.seq)
	return n, nil
}

// build allocates a body for the network's shape; New initialises it.
func (n *Network) build() {
	topo := n.topo
	stage, words := topo.Routers()*topo.Ports(), (topo.Tiles()+63)/64
	n.flitStage = make([]stagedFlit, 0, stage)
	n.creditStage = make([]stagedCredit, 0, stage)
	n.niCreditStage = make([]stagedNICredit, 0, stage)
	n.sending = make([]uint64, words)
	n.decoding = make([]uint64, words)
	n.seq = make([]uint64, topo.Tiles()*topo.Tiles())
	n.routers = make([]*router, topo.Routers())
	for i := range n.routers {
		n.routers[i] = newRouter(n)
	}
	n.nis = make([]*NI, topo.Tiles())
	for i := range n.nis {
		n.nis[i] = newNI(n)
	}
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

const slabLen = 64

// payloadCap is the payload storage carve gives a packet: a 16-word
// block's bitstream fits under any scheme (FP-COMP with every word raw
// takes 70 bytes); a longer one moves to storage of its own.
const payloadCap = 72

// slab holds slabLen packets and one link word per packet. Every NI list
// — the network's free list, an injection queue, a reorder list, a decode
// FIFO — threads through the links: a list reference is slot+1, 0 is the
// empty list, and next[i] refers to the packet after slot i on whichever
// list holds it (0 while it is on none). 64 packets of 184 bytes, 256
// link bytes and an 8-byte malloc header fit the 12 288 B size class;
// 192-byte packets would not (TestPacketSlabBytes).
type slab struct {
	pkt  [slabLen]Packet
	next [slabLen]uint32
}

// fifo is a list threaded through the slab links, by reference to its
// first and last packet.
type fifo struct{ head, tail uint32 }

// pkt is the packet in slot s.
func (n *Network) pkt(s uint32) *Packet { return &n.slabs[s/slabLen].pkt[s%slabLen] }

// link is slot s's link word.
func (n *Network) link(s uint32) *uint32 { return &n.slabs[s/slabLen].next[s%slabLen] }

// unlink removes the first packet of the non-empty list *at refers to.
func (n *Network) unlink(at *uint32) *Packet {
	s := *at - 1
	l := n.link(s)
	*at, *l = *l, 0
	return n.pkt(s)
}

// push appends slot s, on no list, to q.
func (n *Network) push(q *fifo, s uint32) {
	if q.tail == 0 {
		q.head = s + 1
	} else {
		*n.link(q.tail - 1) = s + 1
	}
	q.tail = s + 1
}

// pop removes and returns the first packet of the non-empty q.
func (n *Network) pop(q *fifo) *Packet {
	p := n.unlink(&q.head)
	if q.head == 0 {
		q.tail = 0
	}
	return p
}

// insertBySeq links p, on no list, into the list *at refers to, which it
// keeps in ascending Seq.
func (n *Network) insertBySeq(at *uint32, p *Packet) {
	for *at != 0 && n.pkt(*at-1).Seq < p.Seq {
		at = n.link(*at - 1)
	}
	*n.link(p.slot), *at = *at, p.slot+1
}

// newPacket takes a packet from the free list, or the next slab slot,
// and stamps it as the next packet of the (src, dst) pair. A new slab is
// a released network's when the body brought one.
func (n *Network) newPacket(src, dst int, kind PacketKind, now sim.Cycle) *Packet {
	var p *Packet
	if n.free != 0 {
		p = n.unlink(&n.free)
	} else {
		if n.slots%slabLen == 0 {
			if k := len(n.slabs); k < cap(n.slabs) && n.slabs[:k+1][k] != nil {
				n.slabs = n.slabs[:k+1]
			} else {
				n.slabs = append(n.slabs, new(slab))
			}
		}
		p = n.pkt(uint32(n.slots))
		p.slot = uint32(n.slots)
		n.slots++
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

// carve gives every packet of p's slab without payload storage a share
// of one new block, one allocation for the slab's data packets.
func (n *Network) carve(p *Packet) {
	sl, buf := n.slabs[p.slot/slabLen], make([]byte, slabLen*payloadCap)
	for i := range sl.pkt {
		if q := &sl.pkt[i]; cap(q.Enc.Payload) == 0 {
			q.Enc.Payload = buf[i*payloadCap : i*payloadCap : (i+1)*payloadCap]
		}
	}
}

// freePacket puts a delivered packet on the free list after its delivery
// handlers have returned. Everything but the slot and the payload storage
// is cleared, so newPacket starts from zero values.
func (n *Network) freePacket(p *Packet) {
	*p = Packet{slot: p.slot, Enc: compress.Encoded{Payload: p.Enc.Payload[:0]}}
	*n.link(p.slot), n.free = n.free, p.slot+1
}

// packet is the packet a flit names.
func (n *Network) packet(f flit) *Packet { return n.pkt(f.slot()) }

// Release ends the network's life; a network an Arena built gives its
// body and the codecs the arena's factories made for it back to the
// arena (see Arena.New). Read Stats, Power and CodecStats first. Every
// *Packet the network returned, every NI, router and codec is invalid
// afterwards; Step, SendData, SendControl and CodecStats panic. A second
// Release does nothing.
func (n *Network) Release() {
	if n.released {
		return
	}
	n.released = true
	n.onDeliver, n.tracer, n.obs = nil, nil, nil
	for _, ni := range n.nis {
		ni.codec = nil
	}
	a := n.arena
	if a == nil {
		return
	}
	// In reverse: the factory takes the last spare first, so each codec
	// goes to the tile it served here.
	for i := len(n.lent) - 1; i >= 0; i-- {
		c := n.lent[i]
		a.spare[c.Scheme()] = append(a.spare[c.Scheme()], c)
	}
	if a.lent == nil {
		a.lent = n.lent[:0]
	}
	n.lent, n.arena = nil, nil
	for _, sl := range n.slabs {
		for i := range sl.pkt {
			p := &sl.pkt[i]
			*p = Packet{Enc: compress.Encoded{Payload: p.Enc.Payload[:0]}}
		}
		sl.next = [slabLen]uint32{}
	}
	n.slabs, n.slots, n.free = n.slabs[:0], 0, 0
	a.last = n
}

// live panics once the network is released.
func (n *Network) live() {
	if n.released {
		panic("noc: network used after Release")
	}
}

// SendData queues a cache block from src to dst and returns its packet.
// The block is encoded before SendData returns and nothing of it is kept,
// so the caller may reuse it at once. The packet is network-owned (see
// Packet): valid until its delivery handlers return.
func (n *Network) SendData(src, dst int, blk *value.Block) (*Packet, error) {
	n.live()
	if err := n.checkPair(src, dst); err != nil {
		return nil, err
	}
	return n.nis[src].enqueueData(dst, blk, n.clock.Now()), nil
}

// SendControl queues a single-flit control packet from src to dst.
func (n *Network) SendControl(src, dst int) (*Packet, error) {
	n.live()
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

// Step advances the simulation one cycle.
//
// Routers and NIs are gated on their active-set counters and request
// masks: a stage is only entered when it has work (buffered flits, VCs
// awaiting allocation or routing, queued packets, pending decodes). The gates skip provable no-ops, so
// results are bit-identical to an exhaustive sweep, but near-idle cycles
// — the common case in low-injection sweeps — cost O(active tiles)
// instead of O(all tiles).
func (n *Network) Step() {
	n.live()
	now := n.clock.Now()
	n.landArrivals()

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
// (link/credit delay = 1).
func (n *Network) landArrivals() {
	for _, s := range n.flitStage {
		n.routers[s.router].acceptFlit(s.port, s.vc, s.flit)
	}
	n.flitStage = n.flitStage[:0]
	for _, c := range n.creditStage {
		r := n.routers[c.router]
		r.out[int(c.port)*r.nvc+c.vc].credits++
	}
	n.creditStage = n.creditStage[:0]
	for _, c := range n.niCreditStage {
		n.nis[c.tile].credits[c.vc]++
	}
	n.niCreditStage = n.niCreditStage[:0]
}

// stepNIs injects, completes decodes and ends the cycle, visiting the
// sending and then the decoding NIs in ascending tile order.
func (n *Network) stepNIs(now sim.Cycle) {
	for w, m := range n.sending {
		for ; m != 0; m &= m - 1 {
			ni := n.nis[w*64+bits.TrailingZeros64(m)]
			ni.inject(now)
			if ni.cur == nil && ni.q.head == 0 {
				n.sending[w] &^= m & -m
			}
		}
	}
	for w, m := range n.decoding {
		for ; m != 0; m &= m - 1 {
			ni := n.nis[w*64+bits.TrailingZeros64(m)]
			ni.processDeliveries(now)
			if ni.pendingDeliveries == 0 {
				n.decoding[w] &^= m & -m
			}
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
// remain anywhere in the network. A packet counts in inFlight from
// newPacket to delivery, so its flits and NI list places need no scan.
func (n *Network) Quiescent() bool {
	return n.inFlight == 0 && len(n.creditStage) == 0 && len(n.niCreditStage) == 0
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
	n.live()
	var s compress.OpStats
	for _, ni := range n.nis {
		s.Add(ni.codec.Stats())
	}
	return s
}

// stageFlit schedules a flit to arrive at a router input next cycle.
func (n *Network) stageFlit(router int, port topology.Direction, vc int, f flit) {
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

// setBit sets bit i of a bitmask.
func setBit(mask []uint64, i int) { mask[i/64] |= 1 << uint(i%64) }
