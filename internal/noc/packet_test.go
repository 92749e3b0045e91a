package noc

import (
	"testing"

	"approxnoc/internal/compress"
	"approxnoc/internal/value"
)

func TestPacketLatencyAccessors(t *testing.T) {
	p := &Packet{CreatedAt: 10, InjectedAt: 25, EjectedAt: 60, DeliveredAt: 62}
	if p.QueueLatency() != 15 {
		t.Fatalf("queue %d", p.QueueLatency())
	}
	if p.NetLatency() != 35 {
		t.Fatalf("net %d", p.NetLatency())
	}
	if p.DecodeLatency() != 2 {
		t.Fatalf("decode %d", p.DecodeLatency())
	}
	if p.TotalLatency() != 52 {
		t.Fatalf("total %d", p.TotalLatency())
	}
}

func TestPacketKindStrings(t *testing.T) {
	if ControlPacket.String() != "control" || DataPacket.String() != "data" || NotifPacket.String() != "notif" {
		t.Fatal("kind names wrong")
	}
	if PacketKind(9).String() != "PacketKind(9)" {
		t.Fatal("fallback name wrong")
	}
}

func TestFlitsOfShapes(t *testing.T) {
	ni := baselineNet(t, 2, 2, 1).NI(0)
	single := &Packet{Flits: 1}
	ni.buildFlits(single)
	if fs := ni.curFl; len(fs) != 1 || fs[0].Type != HeadTailFlit || !fs[0].IsHead() || !fs[0].IsTail() || fs[0].Packet != single {
		t.Fatal("single-flit packet malformed")
	}
	multi := &Packet{Flits: 4}
	ni.buildFlits(multi)
	fs := ni.curFl
	if len(fs) != 4 || fs[0].Type != HeadFlit || fs[1].Type != BodyFlit || fs[2].Type != BodyFlit || fs[3].Type != TailFlit {
		t.Fatal("multi-flit shape wrong")
	}
	for i, f := range fs {
		if f.Seq != i || f.Packet != multi {
			t.Fatal("flit bookkeeping wrong")
		}
	}
}

// Queue latency must reflect blocking behind a long packet: a control
// packet enqueued behind a 9-flit data packet waits for its serialization.
func TestQueueLatencyBehindLongPacket(t *testing.T) {
	n := baselineNet(t, 4, 4, 1)
	got := deliveries(n)
	n.SendData(0, 5, testBlock())
	ctl, _ := n.SendControl(0, 5)
	id := ctl.ID
	n.Drain(5000)
	if ctl := got[id]; ctl.QueueLatency() < 8 {
		t.Fatalf("control packet queue latency %d, expected >= 8 behind a 9-flit packet", ctl.QueueLatency())
	}
}

// Special float words (zero, inf, NaN) must survive a DI-VAXX network
// bit exactly even inside approximable blocks.
func TestSpecialFloatsThroughDIVaxxNetwork(t *testing.T) {
	n := schemeNet(t, 4, 4, 1, compress.DIVaxx, 20)
	specials := []uint32{
		0x00000000,                     // +0
		0x80000000,                     // -0
		0x7F800000,                     // +inf
		0xFF800000,                     // -inf
		0x7FC00000,                     // NaN
		0x00000001,                     // denormal
		value.F32(1.5), value.F32(1.5), // learnable normal
	}
	blk := &value.Block{Words: append([]value.Word(nil), specials...), DType: value.Float32, Approximable: true}
	var bad int
	n.SetDeliveryHandler(func(p *Packet, out *value.Block) {
		if p.Kind != DataPacket {
			return
		}
		for i := 0; i < 6; i++ { // the six special words
			if out.Words[i] != specials[i] {
				bad++
			}
		}
	})
	for i := 0; i < 20; i++ {
		n.SendData(0, 9, blk.Clone())
		n.Run(20)
	}
	n.Drain(50000)
	if bad != 0 {
		t.Fatalf("%d special float corruptions", bad)
	}
}
