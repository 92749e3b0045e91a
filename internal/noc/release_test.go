package noc

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"testing"

	"approxnoc/internal/compress"
	"approxnoc/internal/sim"
	"approxnoc/internal/topology"
	"approxnoc/internal/value"
	"approxnoc/internal/workload"
)

// saturate offers every tile a packet with probability 0.3 a cycle, half
// of them data blocks from src, far past what the 4x4 cmesh accepts, and
// steps the network once.
func saturate(n *Network, r *sim.Rand, src *workload.Source, blk *value.Block) {
	tiles := n.Topology().Tiles()
	for tile := 0; tile < tiles; tile++ {
		if !r.Bool(0.3) {
			continue
		}
		dst := (tile + 1 + r.Intn(tiles-1)) % tiles
		if r.Bool(0.5) {
			n.SendData(tile, dst, src.NextBlockInto(blk))
		} else {
			n.SendControl(tile, dst)
		}
	}
	n.Step()
}

// drainPool empties the pool of released networks.
func drainPool() {
	for bodyPool.Get() != nil {
	}
}

// TestReleasedBodyReplaysIdentically pins body reuse: a network built on
// a released network's body runs exactly as one built fresh. Run A,
// under DI-VAXX past saturation and undrained, is released while its
// router buffers, injection queues, reorder lists and decode FIFOs all
// hold packets, so its routers, NIs and slabs carry state and payload
// storage. B, under FP-COMP so payload lengths differ, must take A's
// whole body; C, the same run, builds fresh from a drained pool. B and C
// must agree on NetStats and PowerEvents every cycle, and on CodecStats
// and every delivered packet and block at the end. A released network
// must refuse to step or send, also once B holds its body. D, with 2 VCs,
// gives the next network, E of the default 4, its slabs but never its
// routers or NIs, and E replays C too. Codecs recycle by scheme: a
// DI-COMP and an FP-VAXX network built on a released one's codecs replay
// one on new codecs.
func TestReleasedBodyReplaysIdentically(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC would empty the pool
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))  // one P, so one pool shard holds every body
	drainPool()
	m, _ := workload.ByName("streamcluster")

	a := schemeNet(t, 4, 4, 2, compress.DIVaxx, 10)
	r, src, blk := sim.NewRand(5), m.NewSource(11, 0.75), new(value.Block)
	for a.Now() < 1500 || !a.holdsEveryList() {
		if a.Now() == 20000 {
			t.Fatal("run A never held buffered, queued, reordered and decoding packets at once")
		}
		saturate(a, r, src, blk)
	}
	if err := a.CheckFlitSlots(); err != nil {
		t.Fatal(err)
	}
	bodyA, fromA := a.body, map[*slab]bool{}
	for _, sl := range a.slabs {
		fromA[sl] = true
	}
	a.Release()
	a.Release() // a no-op: the body must not be pooled twice
	refuses := func(n *Network) {
		t.Helper()
		for name, use := range map[string]func(){
			"Step":        n.Step,
			"SendData":    func() { n.SendData(0, 1, testBlock()) },
			"SendControl": func() { n.SendControl(0, 1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s on a released network did not panic", name)
					}
				}()
				use()
			}()
		}
	}
	refuses(a)

	type trace struct {
		n     *Network
		stats []NetStats
		power []PowerEvents
		log   []uint64 // a hash of each delivered packet and block
	}
	run := func(n *Network) *trace {
		tr := &trace{n: n}
		tr.n.SetDeliveryHandler(func(p *Packet, blk *value.Block) {
			h := fnv.New64a()
			fmt.Fprintf(h, "%+v %v", *p, blk)
			tr.log = append(tr.log, h.Sum64())
		})
		r, src, blk := sim.NewRand(6), m.NewSource(12, 0.75), new(value.Block)
		for i := 0; i < 1500; i++ {
			saturate(tr.n, r, src, blk)
			if err := tr.n.CheckFlitSlots(); err != nil {
				t.Fatal(err)
			}
			tr.stats, tr.power = append(tr.stats, tr.n.Stats()), append(tr.power, tr.n.Power())
		}
		if !tr.n.Drain(200000) {
			t.Fatalf("run did not drain; %d in flight", tr.n.InFlight())
		}
		return tr
	}
	fpNet := func() *Network { return schemeNet(t, 4, 4, 2, compress.FPComp, 0) }
	b := run(fpNet())
	refuses(a)
	if !RaceEnabled {
		if a.routers != nil || a.nis != nil || a.slabs != nil {
			t.Fatal("the released network still holds the body B took")
		}
		for i := range b.n.routers {
			if b.n.routers[i] != bodyA.routers[i] {
				t.Fatalf("run B built router %d afresh instead of taking run A's", i)
			}
		}
		for i := range b.n.nis {
			if b.n.nis[i] != bodyA.nis[i] {
				t.Fatalf("run B built NI %d afresh instead of taking run A's", i)
			}
		}
		reused := 0
		for _, sl := range b.n.slabs {
			if fromA[sl] {
				reused++
			}
		}
		if want := min(len(fromA), len(b.n.slabs)); reused != want {
			t.Fatalf("run B took %d of run A's %d slabs for its %d, want %d", reused, len(fromA), len(b.n.slabs), want)
		}
	}
	drainPool()
	c := run(fpNet())
	if c.n.routers[0] == bodyA.routers[0] || c.n.nis[0] == bodyA.nis[0] {
		t.Fatal("run C took run A's fabric from a drained pool")
	}
	for _, sl := range c.n.slabs {
		if fromA[sl] {
			t.Fatal("run C took a slab of run A's from a drained pool")
		}
	}
	same := func(name string, x, c *trace) {
		t.Helper()
		for i := range x.stats {
			if x.stats[i] != c.stats[i] || x.power[i] != c.power[i] {
				t.Fatalf("cycle %d: %s gives %+v %+v, a fresh network %+v %+v", i, name, x.stats[i], x.power[i], c.stats[i], c.power[i])
			}
		}
		if xs, cs := x.n.Stats(), c.n.Stats(); xs != cs {
			t.Fatalf("after the drain: %s gives %+v, a fresh network %+v", name, xs, cs)
		}
		if xc, cc := x.n.CodecStats(), c.n.CodecStats(); xc != cc {
			t.Fatalf("%s gives codec stats %+v, a fresh network %+v", name, xc, cc)
		}
		if len(x.log) != len(c.log) || len(x.log) == 0 {
			t.Fatalf("%s delivered %d packets, a fresh network %d", name, len(x.log), len(c.log))
		}
		for i := range x.log {
			if x.log[i] != c.log[i] {
				t.Fatalf("delivery %d differs between %s and a fresh network", i, name)
			}
		}
	}
	same("a released body", b, c)

	drainPool()
	cfg := DefaultConfig()
	cfg.VCs = 2
	topo, factory := b.n.topo, func(int) compress.Codec { return compress.NewFPComp() }
	d, err := New(topo, cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	for d.Now() < 500 {
		saturate(d, r, src, blk)
	}
	bodyD := d.body
	d.Release()
	e := run(fpNet())
	for i := range e.n.routers {
		if e.n.routers[i] == bodyD.routers[i] || e.n.nis[i] == bodyD.nis[i] {
			t.Fatalf("a 4-VC network took router or NI %d of a released 2-VC one", i)
		}
	}
	if !RaceEnabled && e.n.slabs[0] != bodyD.slabs[0] {
		t.Fatal("a 4-VC network did not take the slabs of a released 2-VC one")
	}
	same("a released 2-VC body's slabs", e, c)

	// Codecs: F, under DI-COMP and then FP-VAXX, is released saturated,
	// its codecs mid-stream and its DI notifications in flight; G of the
	// same scheme must take every codec F had and replay H, which is built
	// on a drained pool with codecs new from the constructors.
	for _, s := range []struct {
		scheme compress.Scheme
		fresh  func(tile int) compress.Codec
	}{
		{compress.DIComp, func(tile int) compress.Codec {
			c, _ := compress.NewDIComp(tile, compress.DefaultDictConfig(topo.Tiles()))
			return c
		}},
		{compress.FPVaxx, func(int) compress.Codec {
			c, _ := compress.NewFPVaxx(10)
			return c
		}},
	} {
		f := schemeNet(t, 4, 4, 2, s.scheme, 10)
		for f.Now() < 1500 {
			saturate(f, r, src, blk)
		}
		fromF := map[compress.Codec]bool{}
		for _, ni := range f.nis {
			fromF[ni.codec] = true
		}
		f.Release()
		g := run(schemeNet(t, 4, 4, 2, s.scheme, 10))
		if !RaceEnabled {
			for i, ni := range g.n.nis {
				if !fromF[ni.codec] {
					t.Fatalf("%v: run G built tile %d's codec afresh instead of taking one of run F's", s.scheme, i)
				}
			}
		}
		drainPool()
		h, err := New(topo, DefaultConfig(), s.fresh)
		if err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("%v on a released network's codecs", s.scheme), g, run(h))
	}
}

// holdsEveryList reports whether some router buffers a flit, some NI
// queues a packet, some reorders one and some decodes one.
func (n *Network) holdsEveryList() bool {
	var buffered, queued, reordered, decoding bool
	for _, r := range n.routers {
		buffered = buffered || r.flits > 0
	}
	for _, ni := range n.nis {
		queued = queued || ni.qlen > 0
		for i := range ni.from {
			reordered = reordered || ni.from[i].reorder != 0
			decoding = decoding || ni.from[i].q.head != 0
		}
	}
	return buffered && queued && reordered && decoding
}

// TestNetworkBuildAllocs pins what a build on a released body costs: with
// one codec shared by every tile, so the factory allocates nothing, a
// network of a released network's shape must allocate its Network header
// and nothing else, where a fresh build allocates every router, NI,
// staging slice and sequence table.
func TestNetworkBuildAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("the race detector drops pooled bodies at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	topo, err := topology.NewCMesh(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	codec := compress.NewBaseline()
	build := func() *Network {
		n, err := New(topo, DefaultConfig(), func(int) compress.Codec { return codec })
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	fresh := testing.AllocsPerRun(5, func() {
		drainPool()
		build()
	})
	reused := testing.AllocsPerRun(20, func() { build().Release() })
	t.Logf("a fresh build allocates %.0f times, one on a released body %.0f", fresh, reused)
	if reused != 1 {
		t.Fatalf("a build on a released body allocated %.0f times, want 1 (the Network header)", reused)
	}
	if fresh <= reused {
		t.Fatalf("a fresh build allocated %.0f times, no more than a reused one", fresh)
	}
}

// TestReleaseRecyclesCodecs pins what Release does with codecs: a DI-VAXX
// network built on a released one's body and codecs allocates its Network
// header and nothing else, and a codec that tiles share never goes back
// to the factories, even one a factory made; a codec a wrapper holds goes
// back as itself.
func TestReleaseRecyclesCodecs(t *testing.T) {
	if RaceEnabled {
		t.Skip("the race detector drops pooled bodies and codecs at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	topo, err := topology.NewCMesh(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := compress.FactoryFor(compress.DIVaxx, topo.Tiles(), 10)
	if err != nil {
		t.Fatal(err)
	}
	build := func(factory func(int) compress.Codec) *Network {
		n, err := New(topo, DefaultConfig(), factory)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	build(factory).Release()
	if allocs := testing.AllocsPerRun(20, func() { build(factory).Release() }); allocs != 1 {
		t.Fatalf("a DI-VAXX build on a released network allocated %.0f times, want 1 (the Network header)", allocs)
	}
	shared := factory(0)
	build(func(int) compress.Codec { return shared }).Release()
	for i, ni := range build(factory).nis {
		if ni.codec == shared {
			t.Fatalf("tile %d took the codec every tile of a released network shared", i)
		}
	}
	// A wrapped factory's network gives back the codecs inside the
	// wrappers: the next codec the factory makes is one of them.
	adaptive := build(compress.AdaptiveFactory(factory))
	inner := map[compress.Codec]bool{}
	for _, ni := range adaptive.nis {
		inner[ni.codec.(*compress.Adaptive).Unwrap()] = true
	}
	adaptive.Release()
	if c := factory(0); !inner[c] {
		t.Fatal("a released adaptive network's wrapped codecs did not go back to the factory")
	}
}
