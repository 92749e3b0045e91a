package noc

import (
	"strings"
	"testing"

	"approxnoc/internal/compress"
	"approxnoc/internal/sim"
	"approxnoc/internal/topology"
	"approxnoc/internal/value"
	"approxnoc/internal/workload"
)

func baselineNet(t *testing.T, w, h, c int) *Network {
	t.Helper()
	topo, err := topology.NewCMesh(w, h, c)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(topo, DefaultConfig(), func(int) compress.Codec { return compress.NewBaseline() })
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func schemeNet(t *testing.T, w, h, c int, scheme compress.Scheme, threshold int) *Network {
	t.Helper()
	topo, err := topology.NewCMesh(w, h, c)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := compress.FactoryFor(scheme, topo.Tiles(), threshold)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(topo, DefaultConfig(), factory)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func testBlock() *value.Block {
	return value.BlockFromI32(make([]int32, value.WordsPerBlock), false)
}

// deliveries records a copy of each delivered packet by ID, as its
// handlers saw it. The network recycles a *Packet once its handlers
// return, so a test that inspects a packet after stepping on reads the
// copy, never the pointer SendData returned.
func deliveries(n *Network) map[uint64]*Packet {
	got := map[uint64]*Packet{}
	n.AddDeliveryHandler(func(p *Packet, _ *value.Block) {
		cp := *p
		got[p.ID] = &cp
	})
	return got
}

func TestControlPacketDelivery(t *testing.T) {
	n := baselineNet(t, 4, 4, 1)
	got := deliveries(n)
	p, err := n.SendControl(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	id := p.ID
	if !n.Drain(1000) {
		t.Fatal("network did not drain")
	}
	if got[id] == nil {
		t.Fatal("packet never delivered")
	}
	s := n.Stats()
	if s.PacketsDelivered != 1 || s.ControlDelivered != 1 {
		t.Fatalf("stats %+v", s)
	}
}

// An uncontended control packet crossing h hops should take roughly
// 3 cycles per hop (3-stage router) plus injection/ejection overhead.
func TestUncontendedLatency(t *testing.T) {
	n := baselineNet(t, 4, 4, 1)
	got := deliveries(n)
	sent, _ := n.SendControl(0, 3) // 3 hops along the top row, 4 routers
	id := sent.ID
	n.Drain(1000)
	p := got[id]
	lat := int(p.TotalLatency())
	// 4 routers * 3 stages + injection link + serialization ~ 13-16.
	if lat < 10 || lat > 20 {
		t.Fatalf("uncontended 3-hop latency %d cycles, expected ~13", lat)
	}
	if p.DecodeLatency() != 0 {
		t.Fatal("control packet has decode latency")
	}
}

func TestLatencyScalesWithDistance(t *testing.T) {
	latency := func(dst int) sim.Cycle {
		n := baselineNet(t, 8, 8, 1)
		got := deliveries(n)
		p, _ := n.SendControl(0, dst)
		id := p.ID
		n.Drain(2000)
		return got[id].TotalLatency()
	}
	near, far := latency(1), latency(63)
	if far <= near {
		t.Fatalf("far latency %d <= near latency %d", far, near)
	}
}

func TestDataPacketBaselineFlits(t *testing.T) {
	n := baselineNet(t, 4, 4, 1)
	p, err := n.SendData(0, 5, testBlock())
	if err != nil {
		t.Fatal(err)
	}
	// 64B block at 8B flits: 8 payload + 1 header.
	if p.Flits != 9 {
		t.Fatalf("baseline data packet %d flits, want 9", p.Flits)
	}
	if !n.Drain(2000) {
		t.Fatal("drain failed")
	}
	s := n.Stats()
	if s.FlitsInjected != 9 || s.FlitsEjected != 9 || s.DataFlitsInjected != 9 {
		t.Fatalf("flit accounting: %+v", s)
	}
}

func TestSelfAndOutOfRangeRejected(t *testing.T) {
	n := baselineNet(t, 2, 2, 1)
	if _, err := n.SendControl(1, 1); err == nil {
		t.Fatal("self-addressed packet accepted")
	}
	if _, err := n.SendControl(0, 99); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
	if _, err := n.SendData(-1, 0, testBlock()); err == nil {
		t.Fatal("negative source accepted")
	}
}

func TestAllPairsDelivery(t *testing.T) {
	n := baselineNet(t, 3, 3, 2) // 18 tiles, concentrated
	tiles := n.Topology().Tiles()
	want := 0
	for s := 0; s < tiles; s++ {
		for d := 0; d < tiles; d++ {
			if s == d {
				continue
			}
			if _, err := n.SendControl(s, d); err != nil {
				t.Fatal(err)
			}
			want++
		}
	}
	if !n.Drain(20000) {
		t.Fatalf("network did not drain; in flight %d", n.InFlight())
	}
	if got := n.Stats().PacketsDelivered; got != uint64(want) {
		t.Fatalf("delivered %d of %d", got, want)
	}
}

func TestHeavyRandomTrafficDrains(t *testing.T) {
	n := baselineNet(t, 4, 4, 1)
	r := sim.NewRand(1234)
	sent := 0
	for cycle := 0; cycle < 2000; cycle++ {
		for tile := 0; tile < 16; tile++ {
			if r.Bool(0.05) {
				dst := r.Intn(16)
				if dst == tile {
					continue
				}
				if r.Bool(0.3) {
					n.SendData(tile, dst, testBlock())
				} else {
					n.SendControl(tile, dst)
				}
				sent++
			}
		}
		n.Step()
	}
	if !n.Drain(100000) {
		t.Fatalf("congested network failed to drain; %d in flight", n.InFlight())
	}
	if got := int(n.Stats().PacketsDelivered); got != sent {
		t.Fatalf("delivered %d of %d", got, sent)
	}
}

func TestPerPairInOrderDelivery(t *testing.T) {
	n := baselineNet(t, 4, 4, 1)
	var deliveries []uint64
	n.SetDeliveryHandler(func(p *Packet, _ *value.Block) {
		if p.Src == 0 && p.Dst == 15 {
			deliveries = append(deliveries, p.Seq)
		}
	})
	r := sim.NewRand(7)
	for i := 0; i < 50; i++ {
		if r.Bool(0.5) {
			n.SendData(0, 15, testBlock())
		} else {
			n.SendControl(0, 15)
		}
		// Interleave with cross traffic to provoke reordering pressure.
		n.SendControl(5, 10)
		n.Step()
		n.Step()
	}
	if !n.Drain(50000) {
		t.Fatal("drain failed")
	}
	for i, seq := range deliveries {
		if seq != uint64(i) {
			t.Fatalf("delivery %d has seq %d: order violated", i, seq)
		}
	}
	if len(deliveries) != 50 {
		t.Fatalf("delivered %d of 50", len(deliveries))
	}
}

// Several blocks enqueued at one NI in the same cycle are all in flight
// together while the NI's codec has already encoded the later ones. The
// packets must carry their own copy of the codec-owned payload (the copy
// in enqueueData), or every delivery decodes the last block.
func TestInFlightEncodingsSurviveLaterEncodes(t *testing.T) {
	blocks := []*value.Block{
		value.BlockFromI32([]int32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, false),
		value.BlockFromI32([]int32{1 << 20, -1 << 20, 77777, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, false),
		value.BlockFromI32([]int32{-1, -2, -3, 0x7FFFFFFF, 300, 300, 300, 300}, false),
		value.BlockFromF32([]float32{1.5, -2.25, 1e30, 0}, false),
	}
	for _, scheme := range []compress.Scheme{compress.FPComp, compress.DIComp} {
		t.Run(scheme.String(), func(t *testing.T) {
			n := schemeNet(t, 4, 4, 1, scheme, 0)
			factory, err := compress.FactoryFor(scheme, n.Topology().Tiles(), 0)
			if err != nil {
				t.Fatal(err)
			}
			fab := compress.NewFabric(n.Topology().Tiles(), factory)
			var got []*value.Block
			n.SetDeliveryHandler(func(p *Packet, blk *value.Block) {
				if p.Kind == DataPacket {
					got = append(got, blk.Clone()) // blk is reused after the handler
				}
			})
			for _, blk := range blocks {
				if _, err := n.SendData(0, 5, blk); err != nil {
					t.Fatal(err)
				}
			}
			if !n.Drain(10000) {
				t.Fatal("network did not drain")
			}
			if len(got) != len(blocks) {
				t.Fatalf("delivered %d data packets, want %d", len(got), len(blocks))
			}
			for i, blk := range blocks {
				if want := fab.Transfer(0, 5, blk); !got[i].Equal(want) {
					t.Fatalf("delivery %d = %v, want %v", i, got[i].Words, want.Words)
				}
			}
		})
	}
}

// TestRecycledPacketsKeepPayloads sends DI-COMP traffic from one reused
// block, three packets at a time per NI, so packets recycle from a hot
// pool while later ones from the same NI are encoded into the same codec
// scratch behind them. Every delivered block must equal what
// Fabric.Transfer makes of the same per-pair sequence: a packet that
// aliased the codec's payload, or shared storage with a live packet,
// decodes another packet's bits.
func TestRecycledPacketsKeepPayloads(t *testing.T) {
	n := schemeNet(t, 4, 4, 1, compress.DIComp, 0)
	tiles := n.Topology().Tiles()
	type pair struct{ src, dst int }
	sent, got := map[pair][]*value.Block{}, map[pair][]*value.Block{}
	n.SetDeliveryHandler(func(p *Packet, blk *value.Block) {
		if p.Kind == DataPacket {
			k := pair{p.Src, p.Dst}
			got[k] = append(got[k], blk.Clone()) // blk is reused after the handler
		}
	})
	m, _ := workload.ByName("ssca2")
	src := m.NewSource(9, 0.75)
	r := sim.NewRand(77)
	var blk value.Block
	for cycle := 0; cycle < 3000; cycle++ {
		for tile := 0; tile < tiles; tile++ {
			if !r.Bool(0.01) {
				continue
			}
			for k := 0; k < 3; k++ {
				dst := (tile + 1 + r.Intn(tiles-1)) % tiles
				if _, err := n.SendData(tile, dst, src.NextBlockInto(&blk)); err != nil {
					t.Fatal(err)
				}
				sent[pair{tile, dst}] = append(sent[pair{tile, dst}], blk.Clone())
			}
		}
		n.Step()
	}
	if !n.Drain(200000) {
		t.Fatalf("network did not drain; %d in flight", n.InFlight())
	}
	if s := n.Stats(); s.PacketsSent < 10*uint64(n.slots) || s.NotifDelivered == 0 {
		t.Fatalf("%d packets (%d notifications) over %d packet structs: the pool never ran hot",
			s.PacketsSent, s.NotifDelivered, n.slots)
	}
	factory, err := compress.FactoryFor(compress.DIComp, tiles, 0)
	if err != nil {
		t.Fatal(err)
	}
	fab := compress.NewFabric(tiles, factory)
	for s := 0; s < tiles; s++ {
		for d := 0; d < tiles; d++ {
			k := pair{s, d}
			if len(got[k]) != len(sent[k]) {
				t.Fatalf("pair %v: delivered %d data packets, sent %d", k, len(got[k]), len(sent[k]))
			}
			for i, b := range sent[k] {
				if want := fab.Transfer(s, d, b); !got[k][i].Equal(want) {
					t.Fatalf("pair %v packet %d: delivered %v, want %v", k, i, got[k][i].Words, want.Words)
				}
			}
		}
	}
}

func TestCompressedSchemeReducesDataFlits(t *testing.T) {
	mk := func(scheme compress.Scheme) uint64 {
		n := schemeNet(t, 4, 4, 1, scheme, 10)
		// Highly compressible traffic: blocks of zeros and tiny ints.
		for i := 0; i < 50; i++ {
			blk := value.BlockFromI32([]int32{0, 0, 0, 0, 1, 2, 3, -1, 0, 0, 0, 0, 5, 5, 5, 5}, false)
			n.SendData(0, 15, blk)
			n.Step()
		}
		if !n.Drain(50000) {
			t.Fatal("drain failed")
		}
		return n.Stats().DataFlitsInjected
	}
	base := mk(compress.Baseline)
	fp := mk(compress.FPComp)
	if fp >= base {
		t.Fatalf("FP-COMP injected %d data flits, baseline %d", fp, base)
	}
	if fp > base/2 {
		t.Fatalf("compressible traffic only reduced flits %d -> %d", base, fp)
	}
}

func TestDecompressionLatencyAccounted(t *testing.T) {
	n := schemeNet(t, 4, 4, 1, compress.FPComp, 0)
	got := deliveries(n)
	p, _ := n.SendData(0, 5, testBlock())
	id := p.ID
	n.Drain(5000)
	if d := got[id].DecodeLatency(); d != sim.Cycle(DefaultConfig().DecompressLatency) {
		t.Fatalf("decode latency %d, want %d", d, DefaultConfig().DecompressLatency)
	}
}

func TestCompressionLatencyVisibleWhenQueueEmpty(t *testing.T) {
	// With an empty queue the compression overhead cannot be hidden: the
	// FP-COMP packet must be injected effectiveCompressLatencyFor cycles
	// after an equivalent baseline packet.
	queueLatency := func(n *Network) int {
		got := deliveries(n)
		p, _ := n.SendData(0, 5, testBlock())
		id := p.ID
		n.Drain(5000)
		return int(got[id].QueueLatency())
	}
	diff := queueLatency(schemeNet(t, 4, 4, 1, compress.FPComp, 0)) - queueLatency(baselineNet(t, 4, 4, 1))
	want := DefaultConfig().effectiveCompressLatencyFor(len(testBlock().Words))
	if diff != want {
		t.Fatalf("queue latency difference %d, want %d", diff, want)
	}
}

func TestOverlapOptimizationsReduceLatency(t *testing.T) {
	run := func(cfg Config) float64 {
		topo, _ := topology.NewMesh(4, 4)
		factory, _ := compress.FactoryFor(compress.FPComp, 16, 0)
		n, err := New(topo, cfg, factory)
		if err != nil {
			t.Fatal(err)
		}
		r := sim.NewRand(42)
		for cycle := 0; cycle < 3000; cycle++ {
			for tile := 0; tile < 16; tile++ {
				if r.Bool(0.02) {
					dst := r.Intn(16)
					if dst != tile {
						n.SendData(tile, dst, testBlock())
					}
				}
			}
			n.Step()
		}
		n.Drain(100000)
		return n.Stats().AvgPacketLatency()
	}
	on := DefaultConfig()
	off := DefaultConfig()
	off.OverlapVCArb = false
	off.OverlapQueueing = false
	lOn, lOff := run(on), run(off)
	if lOn >= lOff {
		t.Fatalf("latency with optimizations %.2f >= without %.2f", lOn, lOff)
	}
}

func TestDictionaryProtocolOverNetwork(t *testing.T) {
	n := schemeNet(t, 4, 4, 1, compress.DIComp, 0)
	var wrong int
	want := value.BlockFromI32([]int32{0x7ABBCCDD >> 1, 0x7ABBCCDD >> 1, 0x7ABBCCDD >> 1, 0x7ABBCCDD >> 1}, false)
	n.SetDeliveryHandler(func(p *Packet, blk *value.Block) {
		if p.Kind == DataPacket && !blk.Equal(want) {
			wrong++
		}
	})
	// Repeatedly send the same block so the dictionary learns and the
	// later packets compress; correctness must hold throughout.
	for i := 0; i < 40; i++ {
		n.SendData(2, 13, want.Clone())
		n.Run(30)
	}
	if !n.Drain(50000) {
		t.Fatal("drain failed")
	}
	if wrong != 0 {
		t.Fatalf("%d corrupted data deliveries", wrong)
	}
	cs := n.CodecStats()
	if cs.WordsExact == 0 {
		t.Fatal("dictionary never compressed over the network")
	}
	if n.Stats().NotifDelivered == 0 {
		t.Fatal("no dictionary notifications crossed the network")
	}
}

func TestDIVaxxOverNetworkRespectsThreshold(t *testing.T) {
	n := schemeNet(t, 4, 4, 1, compress.DIVaxx, 10)
	r := sim.NewRand(5)
	base := int32(1 << 20)
	var worst float64
	sent := map[uint64]*value.Block{}
	n.SetDeliveryHandler(func(p *Packet, blk *value.Block) {
		if p.Kind != DataPacket {
			return
		}
		orig := sent[p.ID]
		for i := range blk.Words {
			e := value.RelError(orig.Words[i], blk.Words[i], value.Int32)
			if e > worst {
				worst = e
			}
		}
	})
	for i := 0; i < 60; i++ {
		words := make([]int32, 16)
		for j := range words {
			// A few hot reference values plus jitter well inside the 10%
			// threshold: the exact patterns recur (so the dictionary
			// learns) and the jittered variants only match via the TCAM's
			// don't-care families.
			words[j] = base + int32(r.Intn(6))*100000 + int32(r.Intn(4))*500
		}
		blk := value.BlockFromI32(words, true)
		p, err := n.SendData(1, 14, blk)
		if err != nil {
			t.Fatal(err)
		}
		sent[p.ID] = blk
		n.Run(25)
	}
	if !n.Drain(50000) {
		t.Fatal("drain failed")
	}
	if worst > 0.10+1e-9 {
		t.Fatalf("worst delivered error %g exceeds 10%% threshold", worst)
	}
	if n.CodecStats().WordsApprox == 0 {
		t.Fatal("DI-VAXX never approximated over the network")
	}
}

func TestPowerEventsAccumulate(t *testing.T) {
	n := baselineNet(t, 4, 4, 1)
	n.SendData(0, 15, testBlock())
	n.Drain(2000)
	p := n.Power()
	if p.BufferWrites == 0 || p.BufferReads == 0 || p.XbarTraversals == 0 || p.LinkTraversals == 0 {
		t.Fatalf("power events missing: %+v", p)
	}
	// Every buffered flit is eventually read out.
	if p.BufferWrites != p.BufferReads {
		t.Fatalf("buffer writes %d != reads %d after drain", p.BufferWrites, p.BufferReads)
	}
	// 9 flits * 6 router traversals along the 6-hop path + ... at least.
	if p.XbarTraversals < 9*6 {
		t.Fatalf("xbar traversals %d too few", p.XbarTraversals)
	}
}

func TestThroughputMetric(t *testing.T) {
	n := baselineNet(t, 4, 4, 1)
	for i := 0; i < 10; i++ {
		n.SendControl(0, 15)
		n.Step()
	}
	n.Drain(5000)
	s := n.Stats()
	if s.Throughput(16) <= 0 {
		t.Fatal("zero throughput after deliveries")
	}
	if s.Throughput(0) != 0 {
		t.Fatal("division by zero tiles")
	}
}

func TestQuiescentInitially(t *testing.T) {
	n := baselineNet(t, 2, 2, 1)
	if !n.Quiescent() {
		t.Fatal("fresh network not quiescent")
	}
	n.Step()
	if !n.Quiescent() {
		t.Fatal("idle step broke quiescence")
	}
}

func TestConcentratedMeshDelivery(t *testing.T) {
	n := baselineNet(t, 4, 4, 2) // the paper's 32-tile configuration
	got := deliveries(n)
	// Tiles 0 and 1 share router 0: 0-hop router path via local ports.
	p, err := n.SendControl(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	id := p.ID
	if !n.Drain(1000) {
		t.Fatal("drain failed")
	}
	if got[id] == nil {
		t.Fatal("same-router delivery failed")
	}
}

func TestConfigValidation(t *testing.T) {
	topo, _ := topology.NewMesh(2, 2)
	bad := DefaultConfig()
	bad.VCs = 0
	if _, err := New(topo, bad, func(int) compress.Codec { return compress.NewBaseline() }); err == nil {
		t.Fatal("accepted zero VCs")
	}
	if _, err := New(nil, DefaultConfig(), func(int) compress.Codec { return compress.NewBaseline() }); err == nil {
		t.Fatal("accepted nil topology")
	}
}

// TestDictFactoryMisconfiguration pins where a bad dictionary config
// fails, on both DI schemes: a PMT of no entries when the factory is
// built, and a config for fewer nodes than the mesh has tiles when the
// network is built, as an error naming the first tile without a codec,
// not a panic and not a nil codec.
func TestDictFactoryMisconfiguration(t *testing.T) {
	topo, err := topology.NewCMesh(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []compress.Scheme{compress.DIComp, compress.DIVaxx} {
		t.Run(scheme.String(), func(t *testing.T) {
			if _, err := compress.FactoryWithDict(scheme, compress.DictConfig{Nodes: 32, Entries: 0}, 10); err == nil {
				t.Fatal("a factory with no PMT entries built")
			}
			factory, err := compress.FactoryWithDict(scheme, compress.DefaultDictConfig(16), 10)
			if err != nil {
				t.Fatal(err)
			}
			if c := factory(16); c != nil {
				t.Fatalf("a 16-node factory made a codec for node 16: %v", c.Scheme())
			}
			_, err = New(topo, DefaultConfig(), factory)
			if err == nil || !strings.Contains(err.Error(), "tile 16") {
				t.Fatalf("New over 32 tiles with a 16-node factory: error %v, want one naming tile 16", err)
			}
		})
	}
}

// The allocators keep one request bit per input VC in a machine word:
// 64 per router is accepted (and stepped against the sweep oracle in
// router_diff_test.go), 65 and up is refused at construction.
func TestAllocatorSlotLimit(t *testing.T) {
	baseline := func(int) compress.Codec { return compress.NewBaseline() }
	for _, c := range []struct {
		conc, vcs int
		ok        bool
	}{
		{4, 8, true},   // 8 ports x 8 VCs = 64
		{1, 12, true},  // 5 x 12 = 60
		{1, 13, false}, // 5 x 13 = 65
		{4, 9, false},  // 8 x 9 = 72
		{2, 16, false}, // 6 x 16 = 96
	} {
		topo, err := topology.NewCMesh(2, 2, c.conc)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.VCs = c.vcs
		n, err := New(topo, cfg, baseline)
		if !c.ok {
			if err == nil || !strings.Contains(err.Error(), "input VCs per router") {
				t.Errorf("concentration %d, %d VCs: err = %v, want the slot-limit error", c.conc, c.vcs, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("concentration %d, %d VCs refused: %v", c.conc, c.vcs, err)
			continue
		}
		// Enough back-to-back packets per tile that the NI's round-robin
		// reaches the last VC of the last local port, the top mask bit.
		sent := 0
		for i := 0; i < 2*c.vcs; i++ {
			for src := 0; src < topo.Tiles(); src++ {
				if dst := (src + 1 + i) % topo.Tiles(); dst != src {
					n.SendData(src, dst, testBlock())
					sent++
				}
			}
		}
		sawTop := false
		for i := 0; i < 100000 && !n.Quiescent(); i++ {
			n.Step()
			for _, r := range n.routers {
				sawTop = sawTop || r.in[len(r.in)-1].count > 0
			}
		}
		if got := int(n.Stats().PacketsDelivered); got != sent || !sawTop {
			t.Errorf("concentration %d, %d VCs: delivered %d of %d, top slot used: %v", c.conc, c.vcs, got, sent, sawTop)
		}
	}
}

func TestDataPacketFlitsFragmentation(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct{ bytes, flits int }{
		{0, 2}, {1, 2}, {8, 2}, {9, 3}, {64, 9}, {63, 9}, {17, 4},
	}
	for _, c := range cases {
		if got := cfg.dataPacketFlits(c.bytes); got != c.flits {
			t.Errorf("dataPacketFlits(%d) = %d, want %d", c.bytes, got, c.flits)
		}
	}
}

func TestEffectiveCompressLatency(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.effectiveCompressLatencyFor(16); got != 2 {
		t.Fatalf("overlapped latency %d, want 2", got)
	}
	cfg.OverlapVCArb = false
	if got := cfg.effectiveCompressLatencyFor(16); got != 3 {
		t.Fatalf("unoverlapped latency %d, want 3", got)
	}
}

func TestMatchUnitLatencyModel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MatchUnits = 8
	// The paper's provisioning: 8 units reproduce the 3-cycle total for a
	// 16-word block (2 match + 1 encode).
	if got := cfg.compressLatencyFor(16); got != 3 {
		t.Fatalf("8 units, 16 words: %d cycles, want 3", got)
	}
	cfg.MatchUnits = 1
	if got := cfg.compressLatencyFor(16); got != 17 {
		t.Fatalf("1 unit, 16 words: %d cycles, want 17", got)
	}
	cfg.MatchUnits = 16
	if got := cfg.compressLatencyFor(16); got != 2 {
		t.Fatalf("16 units: %d cycles, want 2", got)
	}
	cfg.MatchUnits = 0
	if got := cfg.compressLatencyFor(16); got != cfg.CompressLatency {
		t.Fatalf("disabled model: %d cycles", got)
	}
	// Overlap hides one cycle regardless of the model.
	cfg.MatchUnits = 8
	if got := cfg.effectiveCompressLatencyFor(16); got != 2 {
		t.Fatalf("overlapped 8-unit latency %d, want 2", got)
	}
}

func TestFewerMatchUnitsIncreaseLatency(t *testing.T) {
	run := func(units int) float64 {
		topo, _ := topology.NewMesh(4, 4)
		factory, _ := compress.FactoryFor(compress.FPVaxx, 16, 10)
		cfg := DefaultConfig()
		cfg.MatchUnits = units
		cfg.OverlapQueueing = false // make the compression latency visible
		n, err := New(topo, cfg, factory)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			n.SendData(i%16, (i+3)%16, testBlock())
			n.Run(20)
		}
		n.Drain(100000)
		return n.Stats().AvgPacketLatency()
	}
	one, eight := run(1), run(8)
	if one <= eight {
		t.Fatalf("1 unit latency %.2f not above 8 units %.2f", one, eight)
	}
}

func TestLatencyPercentiles(t *testing.T) {
	n := baselineNet(t, 4, 4, 1)
	for i := 0; i < 50; i++ {
		n.SendControl(0, 15)
		n.Step()
	}
	n.Drain(10000)
	s := n.Stats()
	p50 := s.LatencyPercentile(50)
	p99 := s.LatencyPercentile(99)
	if p50 <= 0 || p99 < p50 {
		t.Fatalf("percentiles p50=%g p99=%g", p50, p99)
	}
	if s.LatencyPercentile(0) != 0 {
		t.Fatal("0th percentile nonzero")
	}
	var empty NetStats
	if empty.LatencyPercentile(50) != 0 {
		t.Fatal("empty stats percentile nonzero")
	}
	// Nearest rank ⌈pct·n/100⌉, not the truncated pct·n/100: the median of
	// three is the second delivery, p99 of 150 the 149th.
	deliver := func(s *NetStats, lat sim.Cycle, times int) {
		for i := 0; i < times; i++ {
			s.recordDelivery(&Packet{Kind: ControlPacket, EjectedAt: lat, DeliveredAt: lat})
		}
	}
	var three, many NetStats
	deliver(&three, 10, 1)
	deliver(&three, 100, 2)
	if p50 := three.LatencyPercentile(50); p50 != 104 {
		t.Fatalf("p50 of {10, 100, 100} reads %g, want 104", p50)
	}
	deliver(&many, 10, 148)
	deliver(&many, 100, 2)
	if p99 := many.LatencyPercentile(99); p99 != 104 {
		t.Fatalf("p99 of 148 deliveries at 10 and 2 at 100 reads %g, want 104", p99)
	}
	var hundred NetStats
	deliver(&hundred, 10, 99)
	deliver(&hundred, 100, 1)
	if p99 := hundred.LatencyPercentile(99); p99 != 16 {
		t.Fatalf("p99 of 99 deliveries at 10 and 1 at 100 reads %g, want 16 (rank 99)", p99)
	}
}

// A percentile that lands in the histogram's last, unbounded bin reports
// the largest latency delivered, not the bin's 512-cycle start.
func TestLatencyPercentileBeyondHistogram(t *testing.T) {
	var s NetStats
	deliver := func(lat sim.Cycle) {
		s.recordDelivery(&Packet{Kind: ControlPacket, CreatedAt: 100, InjectedAt: 100, EjectedAt: 100 + lat, DeliveredAt: 100 + lat})
	}
	for i := 0; i < 99; i++ {
		deliver(10)
	}
	deliver(2000)
	if p50, p100 := s.LatencyPercentile(50), s.LatencyPercentile(100); p50 != 16 || p100 != 2000 {
		t.Fatalf("p50 %g, p100 %g; want 16 and 2000", p50, p100)
	}
	for i := 0; i < 100; i++ {
		deliver(2000)
	}
	if p99 := s.LatencyPercentile(99); p99 < 2000 {
		t.Fatalf("p99 %g with most deliveries at 2000 cycles", p99)
	}
	// Rebuilt from exported fields, the maximum is lost: the histogram's span.
	rebuilt := NetStats{PacketsDelivered: s.PacketsDelivered, LatencyHist: s.LatencyHist}
	if p99 := rebuilt.LatencyPercentile(99); p99 != 512 {
		t.Fatalf("p99 %g without the maximum, want 512", p99)
	}
}
