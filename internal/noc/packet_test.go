package noc

import (
	"runtime"
	"testing"
	"unsafe"

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

// A flit carries its packet's slot and its head and tail marks, and the
// network maps the slot back to the packet across slab boundaries.
func TestFlitsOfShapes(t *testing.T) {
	for _, tc := range []struct {
		slot       uint32
		i, n       int
		head, tail bool
	}{
		{slot: 7, i: 0, n: 1, head: true, tail: true},
		{slot: 1<<30 - 1, i: 0, n: 4, head: true},
		{slot: 5, i: 1, n: 4},
		{slot: 5, i: 2, n: 4},
		{slot: 5, i: 3, n: 4, tail: true},
	} {
		f := makeFlit(tc.slot, tc.i, tc.n)
		if f.slot() != tc.slot || f.IsHead() != tc.head || f.IsTail() != tc.tail {
			t.Fatalf("flit %d of %d in slot %d: slot %d head %v tail %v", tc.i, tc.n, tc.slot, f.slot(), f.IsHead(), f.IsTail())
		}
	}
	n := baselineNet(t, 2, 2, 1)
	for i := 0; i < 2*slabLen+1; i++ {
		p, err := n.SendControl(i%4, (i+1)%4)
		if err != nil {
			t.Fatal(err)
		}
		if int(p.slot) != i || n.packet(makeFlit(p.slot, 0, 1)) != p {
			t.Fatalf("packet %d in slot %d does not map back to itself", i, p.slot)
		}
	}
}

// TestPacketSlabBytes pins what packet storage costs: 64·k control packets
// queued on an unstepped network take k slabs of 64 Packets, and those
// must cost no more than 5 % over the Packets' own bytes. Packet is 184
// bytes, so a slab's packets, its 256 link bytes and its malloc header fit
// the 12 288-byte size class, 4.3 % over; a field added outside the
// padding after Kind makes Packet 192 bytes and spills every slab into the
// 13 568-byte class, 10 % over.
func TestPacketSlabBytes(t *testing.T) {
	const k = 32
	n := baselineNet(t, 4, 4, 2)
	tiles := n.Topology().Tiles()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < slabLen*k; i++ {
		if _, err := n.SendControl(i%tiles, (i+1)%tiles); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if len(n.slabs) != k {
		t.Fatalf("%d packets took %d slabs, want %d", slabLen*k, len(n.slabs), k)
	}
	size := unsafe.Sizeof(Packet{})
	budget := float64(slabLen*k) * float64(size) * 1.05
	if got := after.TotalAlloc - before.TotalAlloc; float64(got) > budget {
		t.Fatalf("%d packets of %d bytes allocated %d bytes, over the %.0f-byte budget", slabLen*k, size, got, budget)
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
