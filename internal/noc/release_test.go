package noc

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"testing"

	"approxnoc/internal/compress"
	"approxnoc/internal/sim"
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

// TestReleasedSlabsReplayIdentically pins slab recycling: a network that
// takes a released network's slabs runs exactly as one built on fresh
// ones. Run A, under DI-VAXX past saturation and undrained, is released
// while its injection queues, reorder lists and decode FIFOs all hold
// packets, so its slabs carry links and payload storage. B, under FP-COMP
// so payload lengths differ, must take exactly A's slabs; C, the same run,
// takes fresh ones from a drained pool. B and C must agree on NetStats
// and PowerEvents every cycle, and on CodecStats and every delivered
// packet and block at the end. A released network must refuse to step or
// send.
func TestReleasedSlabsReplayIdentically(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC would empty the pool
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))  // one P, so one pool shard holds every slab
	drainPool := func() {
		for slabPool.Get() != nil {
		}
	}
	drainPool()
	m, _ := workload.ByName("streamcluster")

	a := schemeNet(t, 4, 4, 2, compress.DIVaxx, 10)
	r, src, blk := sim.NewRand(5), m.NewSource(11, 0.75), new(value.Block)
	for a.Now() < 1500 || !a.holdsEveryList() {
		if a.Now() == 20000 {
			t.Fatal("run A never held queued, reordered and decoding packets at once")
		}
		saturate(a, r, src, blk)
	}
	if err := a.CheckFlitSlots(); err != nil {
		t.Fatal(err)
	}
	fromA := map[*slab]bool{}
	for _, sl := range a.slabs {
		fromA[sl] = true
	}
	a.Release()
	for name, use := range map[string]func(){
		"Step":        a.Step,
		"SendData":    func() { a.SendData(0, 1, testBlock()) },
		"SendControl": func() { a.SendControl(0, 1) },
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

	type trace struct {
		n     *Network
		stats []NetStats
		power []PowerEvents
		log   []uint64 // a hash of each delivered packet and block
	}
	run := func() *trace {
		tr := &trace{n: schemeNet(t, 4, 4, 2, compress.FPComp, 0)}
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
	b := run()
	reused := 0
	for _, sl := range b.n.slabs {
		if fromA[sl] {
			reused++
		}
	}
	if want := min(len(fromA), len(b.n.slabs)); reused != want && !RaceEnabled {
		t.Fatalf("run B took %d of run A's %d slabs for its %d, want %d", reused, len(fromA), len(b.n.slabs), want)
	}
	drainPool()
	c := run()
	for _, sl := range c.n.slabs {
		if fromA[sl] {
			t.Fatal("run C took a slab of run A's from a drained pool")
		}
	}
	for i := range b.stats {
		if b.stats[i] != c.stats[i] || b.power[i] != c.power[i] {
			t.Fatalf("cycle %d: recycled slabs give %+v %+v, fresh ones %+v %+v", i, b.stats[i], b.power[i], c.stats[i], c.power[i])
		}
	}
	if bs, cs := b.n.Stats(), c.n.Stats(); bs != cs {
		t.Fatalf("after the drain: recycled slabs give %+v, fresh ones %+v", bs, cs)
	}
	if bc, cc := b.n.CodecStats(), c.n.CodecStats(); bc != cc {
		t.Fatalf("recycled slabs give codec stats %+v, fresh ones %+v", bc, cc)
	}
	if len(b.log) != len(c.log) || len(b.log) == 0 {
		t.Fatalf("recycled slabs delivered %d packets, fresh ones %d", len(b.log), len(c.log))
	}
	for i := range b.log {
		if b.log[i] != c.log[i] {
			t.Fatalf("delivery %d differs between recycled and fresh slabs", i)
		}
	}
}

// holdsEveryList reports whether some NI queues a packet, some reorders
// one and some decodes one.
func (n *Network) holdsEveryList() bool {
	var queued, reordered, decoding bool
	for _, ni := range n.nis {
		queued = queued || ni.qlen > 0
		for i := range ni.from {
			reordered = reordered || ni.from[i].reorder != 0
			decoding = decoding || ni.from[i].q.head != 0
		}
	}
	return queued && reordered && decoding
}
