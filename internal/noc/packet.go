// Package noc is the cycle-accurate network-on-chip simulator the
// evaluation runs on: wormhole-switched virtual-channel routers with a
// three-stage pipeline (RC/VA | SA | ST), credit-based flow control, XY
// routing on (concentrated) meshes, and network interfaces that integrate
// the APPROX-NoC compression/approximation codecs with the paper's latency
// model (3-cycle compression, 2-cycle decompression, §4.3 latency-hiding
// optimizations).
package noc

import (
	"fmt"

	"approxnoc/internal/compress"
	"approxnoc/internal/sim"
)

// PacketKind classifies NoC traffic (paper §3: control packets for message
// passing/coherence, data request/reply packets, plus the dictionary
// protocol's notification packets).
type PacketKind uint8

const (
	// ControlPacket is a single-flit address/control message.
	ControlPacket PacketKind = iota
	// DataPacket carries one (possibly compressed) cache block.
	DataPacket
	// NotifPacket is a single-flit dictionary protocol message.
	NotifPacket
)

func (k PacketKind) String() string {
	switch k {
	case ControlPacket:
		return "control"
	case DataPacket:
		return "data"
	case NotifPacket:
		return "notif"
	default:
		return fmt.Sprintf("PacketKind(%d)", uint8(k))
	}
}

// Packet is one message in flight, fragmented into flits at the NI.
//
// The network owns every *Packet it hands out, from SendData, SendControl
// or a delivery handler: the pointer is valid until the packet's delivery
// handlers return, after which the network recycles the struct and its
// payload storage for a later packet. Copy any field you need later.
type Packet struct {
	ID   uint64
	Src  int // source tile
	Dst  int // destination tile
	Kind PacketKind
	// slot is the packet's place in the network's slabs, fixed for life;
	// it sits in the padding after Kind, so it costs Packet no bytes.
	slot uint32

	// Seq orders packets per (src,dst) pair; the destination NI delivers
	// in sequence order, which the dictionary protocol relies on.
	Seq uint64

	// Flits is the total flit count including the header flit.
	Flits int

	// Enc is the compressed payload of a data packet: the codec's header
	// with Payload copied into storage the packet keeps across reuse. The
	// encoder's per-word audit trail (Words) is not carried.
	Enc compress.Encoded
	// Notif is the payload of a dictionary notification packet.
	Notif compress.Notification

	// Timestamps for the Fig. 9 latency breakdown.
	CreatedAt  sim.Cycle // handed to the NI
	ReadyAt    sim.Cycle // compression complete, eligible for injection
	InjectedAt sim.Cycle // head flit entered the router
	EjectedAt  sim.Cycle // tail flit left the network
	// DeliveredAt is when decompression completed and the packet reached
	// the tile. While the packet waits in the decode FIFO, released in
	// sequence at ejection or from the reorder list, it holds the cycle
	// the decode finishes; deliver overwrites it.
	DeliveredAt sim.Cycle
}

// QueueLatency is time from creation to head-flit injection: NI queueing
// plus any unhidden compression overhead.
func (p *Packet) QueueLatency() sim.Cycle { return p.InjectedAt - p.CreatedAt }

// NetLatency is time from head-flit injection to tail-flit ejection.
func (p *Packet) NetLatency() sim.Cycle { return p.EjectedAt - p.InjectedAt }

// DecodeLatency is the post-ejection decompression time.
func (p *Packet) DecodeLatency() sim.Cycle { return p.DeliveredAt - p.EjectedAt }

// TotalLatency is creation to delivery.
func (p *Packet) TotalLatency() sim.Cycle { return p.DeliveredAt - p.CreatedAt }

// flit is the flow-control unit moving through routers: a plain word
// naming its packet's slab slot in the high bits, with head and tail marks
// in the low two. A flit carries no pointer, so buffering, staging and
// injecting one is a word copy the garbage collector never sees.
type flit uint32

const (
	headMark  flit = 1 // the flit performs route computation
	tailMark  flit = 2 // the flit releases the wormhole
	slotShift      = 2 // the packet's slot starts above the marks
)

// makeFlit builds flit i of an n-flit packet in slot.
func makeFlit(slot uint32, i, n int) flit {
	f := flit(slot) << slotShift
	if i == 0 {
		f |= headMark
	}
	if i == n-1 {
		f |= tailMark
	}
	return f
}

// IsHead reports whether the flit performs route computation.
func (f flit) IsHead() bool { return f&headMark != 0 }

// IsTail reports whether the flit releases the wormhole.
func (f flit) IsTail() bool { return f&tailMark != 0 }

// slot is the slab slot of the flit's packet.
func (f flit) slot() uint32 { return uint32(f >> slotShift) }
