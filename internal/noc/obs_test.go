package noc

import (
	"slices"
	"strings"
	"testing"

	"approxnoc/internal/compress"
	"approxnoc/internal/obs"
	"approxnoc/internal/sim"
	"approxnoc/internal/topology"
	"approxnoc/internal/workload"
)

// obsRun drives the standard determinism workload under scheme with the
// given obs attachment and returns the result statistics plus the trace
// stream.
func obsRun(t *testing.T, scheme compress.Scheme, reg *obs.Registry, tracer *obs.Tracer) (NetStats, compress.OpStats, []obs.Event) {
	t.Helper()
	n := schemeNet(t, 4, 4, 2, scheme, 10)
	if reg != nil || tracer != nil {
		n.EnableObs(reg, tracer, 1) // publish every cycle: the worst case
	}
	m, _ := workload.ByName("ssca2")
	src := m.NewSource(11, 0.75)
	r := sim.NewRand(99)
	for cycle := 0; cycle < 1500; cycle++ {
		for tile := 0; tile < 32; tile++ {
			if r.Bool(0.03) {
				dst := r.Intn(32)
				if dst == tile {
					continue
				}
				if r.Bool(0.5) {
					n.SendData(tile, dst, src.NextBlock())
				} else {
					n.SendControl(tile, dst)
				}
			}
		}
		n.Step()
	}
	n.Drain(100000)
	n.PublishObs()
	return n.Stats(), n.CodecStats(), tracer.Snapshot()
}

// TestObsDoesNotPerturbSimulation is the instrumentation contract: a
// fully-instrumented run (registry publishing every cycle, tracer on)
// must produce bit-identical statistics to a bare run with the same
// seeds.
func TestObsDoesNotPerturbSimulation(t *testing.T) {
	bareStats, bareCodec, _ := obsRun(t, compress.DIVaxx, nil, nil)

	reg := obs.NewRegistry()
	tracer := obs.NewTracer(16, 1<<16)
	obsStats, obsCodec, events := obsRun(t, compress.DIVaxx, reg, tracer)

	if bareStats != obsStats {
		t.Fatalf("obs changed network stats:\nbare: %+v\nobs:  %+v", bareStats, obsStats)
	}
	if bareCodec != obsCodec {
		t.Fatalf("obs changed codec stats:\nbare: %+v\nobs:  %+v", bareCodec, obsCodec)
	}
	if len(events) == 0 {
		t.Fatal("instrumented run recorded no events")
	}
	// The scrape reflects the final published snapshot.
	snap := reg.Snapshot()
	var sent float64
	for _, f := range snap.Families {
		if f.Name == "noc_packets_sent_total" {
			sent = f.Samples[0].Value
		}
	}
	if sent != float64(obsStats.PacketsSent) {
		t.Fatalf("scrape shows %g packets sent, stats say %d", sent, obsStats.PacketsSent)
	}
	// The network exports the codec family set the gateway prefix gets:
	// nine prefixed families, from the one exporter.
	serveReg := obs.NewRegistry()
	compress.RegisterMetrics(serveReg, "serve", func() compress.OpStats { return compress.OpStats{} })
	if got, want := codecFamilies(reg, "noc"), codecFamilies(serveReg, "serve"); len(got) != 9 || !slices.Equal(got, want) {
		t.Fatalf("noc codec families %v differ from the serve set %v", got, want)
	}
}

// codecFamilies lists the codec families on reg, prefix stripped and
// sorted, so two layers' exports compare by shape.
func codecFamilies(reg *obs.Registry, prefix string) []string {
	var out []string
	for _, f := range reg.Snapshot().Families {
		if rest, ok := strings.CutPrefix(f.Name, prefix+"_codec_"); ok {
			out = append(out, "codec_"+rest)
		}
	}
	slices.Sort(out)
	return out
}

// TestTraceStreamDeterministic pins the event stream itself: two
// identically-seeded single-threaded runs record the same events in the
// same order, with nothing dropped or evicted when the ring is big
// enough.
func TestTraceStreamDeterministic(t *testing.T) {
	run := func() ([]obs.Event, *obs.Tracer) {
		tr := obs.NewTracer(16, 1<<16)
		_, _, events := obsRun(t, compress.DIVaxx, nil, tr)
		return events, tr
	}
	e1, t1 := run()
	e2, _ := run()
	if t1.Dropped() != 0 || t1.Evicted() != 0 {
		t.Fatalf("single-threaded run lost events: dropped=%d evicted=%d", t1.Dropped(), t1.Evicted())
	}
	if len(e1) == 0 || len(e1) != len(e2) {
		t.Fatalf("event counts diverged: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, e1[i], e2[i])
		}
	}
	// Every declared NoC event kind should actually occur in a mixed
	// DI-VAXX workload — a missing kind means an instrumentation point
	// got lost.
	seen := make(map[obs.EventKind]bool)
	for _, e := range e1 {
		seen[e.Kind] = true
	}
	for _, kind := range []obs.EventKind{
		obs.EvFlitInject, obs.EvFlitEject, obs.EvVCAlloc,
		obs.EvCompress, obs.EvDecompress, obs.EvApproxHit, obs.EvPMTUpdate,
	} {
		if !seen[kind] {
			t.Errorf("no %v events recorded", kind)
		}
	}
}

// TestApproxHitEventsMatchStats: the approximate words the EvApproxHit
// events report (B; A is the packet ID) add up to the codecs' own
// WordsApprox count.
func TestApproxHitEventsMatchStats(t *testing.T) {
	for _, scheme := range []compress.Scheme{compress.FPVaxx, compress.DIVaxx} {
		tr := obs.NewTracer(16, 1<<16)
		_, codec, events := obsRun(t, scheme, nil, tr)
		if tr.Dropped() != 0 || tr.Evicted() != 0 {
			t.Fatalf("%v: run lost events: dropped=%d evicted=%d", scheme, tr.Dropped(), tr.Evicted())
		}
		var approx uint64
		for _, e := range events {
			if e.Kind == obs.EvApproxHit {
				approx += e.B
			}
		}
		if approx == 0 || approx != codec.WordsApprox {
			t.Fatalf("%v: EvApproxHit events report %d approximate words, codec stats %d", scheme, approx, codec.WordsApprox)
		}
	}
}

// benchStep measures the simulator hot path; the obs acceptance
// criterion is that the disabled-tracer variant stays within 5% of this.
func benchStep(b *testing.B, attach func(*Network)) {
	topoNet := func() *Network {
		n, err := newBenchNet()
		if err != nil {
			b.Fatal(err)
		}
		return n
	}
	n := topoNet()
	if attach != nil {
		attach(n)
	}
	m, _ := workload.ByName("ssca2")
	src := m.NewSource(11, 0.75)
	r := sim.NewRand(99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tile := r.Intn(32)
		if r.Bool(0.2) {
			dst := r.Intn(32)
			if dst != tile {
				if r.Bool(0.5) {
					n.SendData(tile, dst, src.NextBlock())
				} else {
					n.SendControl(tile, dst)
				}
			}
		}
		n.Step()
	}
}

func newBenchNet() (*Network, error) {
	topo, err := topology.NewCMesh(4, 4, 2)
	if err != nil {
		return nil, err
	}
	factory, err := compress.FactoryFor(compress.DIVaxx, topo.Tiles(), 10)
	if err != nil {
		return nil, err
	}
	return New(topo, DefaultConfig(), factory)
}

func BenchmarkStepObsOff(b *testing.B) {
	benchStep(b, nil)
}

func BenchmarkStepObsDisabledTracer(b *testing.B) {
	// EnableObs with a nil tracer and registry attached: the hot path
	// pays only nil checks and the periodic snapshot publish.
	benchStep(b, func(n *Network) {
		n.EnableObs(obs.NewRegistry(), nil, 256)
	})
}

func BenchmarkStepObsOn(b *testing.B) {
	benchStep(b, func(n *Network) {
		n.EnableObs(obs.NewRegistry(), obs.NewTracer(16, 4096), 256)
	})
}
