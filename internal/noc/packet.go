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
	CreatedAt   sim.Cycle // handed to the NI
	ReadyAt     sim.Cycle // compression complete, eligible for injection
	InjectedAt  sim.Cycle // head flit entered the router
	EjectedAt   sim.Cycle // tail flit left the network
	DeliveredAt sim.Cycle // decompression complete, handed to the tile
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

// FlitType marks a flit's position within its packet.
type FlitType uint8

const (
	// HeadFlit opens a multi-flit packet.
	HeadFlit FlitType = iota
	// BodyFlit is a middle flit.
	BodyFlit
	// TailFlit closes a multi-flit packet.
	TailFlit
	// HeadTailFlit is the sole flit of a single-flit packet.
	HeadTailFlit
)

// Flit is the flow-control unit moving through routers.
type Flit struct {
	Type   FlitType
	Seq    int // index within the packet
	Packet *Packet
}

// IsHead reports whether the flit performs route computation.
func (f *Flit) IsHead() bool { return f.Type == HeadFlit || f.Type == HeadTailFlit }

// IsTail reports whether the flit releases the wormhole.
func (f *Flit) IsTail() bool { return f.Type == TailFlit || f.Type == HeadTailFlit }
