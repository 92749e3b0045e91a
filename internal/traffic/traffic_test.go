package traffic

import (
	"testing"

	"approxnoc/internal/compress"
	"approxnoc/internal/noc"
	"approxnoc/internal/sim"
	"approxnoc/internal/topology"
	"approxnoc/internal/workload"
)

func testNet(t *testing.T) *noc.Network {
	t.Helper()
	topo, err := topology.NewMesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	n, err := noc.New(topo, noc.DefaultConfig(), func(int) compress.Codec { return compress.NewBaseline() })
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func testSource() *workload.Source {
	m, _ := workload.ByName("blackscholes")
	return m.NewSource(1, 0.75)
}

func TestNewValidation(t *testing.T) {
	n := testNet(t)
	if _, err := New(n, Config{FlitRate: 0, DataRatio: 0.5, Source: testSource()}); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := New(n, Config{FlitRate: 0.1, DataRatio: 2, Source: testSource()}); err == nil {
		t.Fatal("bad data ratio accepted")
	}
	if _, err := New(n, Config{FlitRate: 0.1, DataRatio: 0.5}); err == nil {
		t.Fatal("nil source accepted")
	}
	if _, err := New(n, Config{Pattern: Hotspot, HotspotTile: 99, FlitRate: 0.1, DataRatio: 0.5, Source: testSource()}); err == nil {
		t.Fatal("out-of-range hotspot accepted")
	}
	if _, err := New(n, Config{FlitRate: 0.1, DataRatio: 0.5, Source: testSource(), Bursty: true}); err == nil {
		t.Fatal("bursty without periods accepted")
	}
}

func TestInjectionRateApproximation(t *testing.T) {
	n := testNet(t)
	in, err := New(n, Config{Pattern: UniformRandom, FlitRate: 0.10, DataRatio: 0.25, Source: testSource(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res := Run(n, in, 5000, true)
	// Offered 0.10 flits/cycle/tile over 16 tiles and 5000 cycles = 8000
	// flit-slots; with avg packet size 3 flits -> ~2667 packets.
	if res.Sent < 2200 || res.Sent > 3200 {
		t.Fatalf("sent %d packets, expected ~2667", res.Sent)
	}
	if res.Delivered != res.Sent+0 {
		t.Fatalf("delivered %d of %d", res.Delivered, res.Sent)
	}
}

func TestTransposeDestinations(t *testing.T) {
	n := testNet(t)
	in, _ := New(n, Config{Pattern: Transpose, FlitRate: 0.05, DataRatio: 0, Source: testSource(), Seed: 5})
	topo := n.Topology()
	for src := 0; src < 16; src++ {
		dst, ok := in.dest(src, 16)
		x, y := topo.XY(src)
		if x == y {
			if ok {
				t.Fatalf("diagonal tile %d got transpose partner %d", src, dst)
			}
			continue
		}
		if !ok {
			t.Fatalf("tile %d has no transpose destination", src)
		}
		dx, dy := topo.XY(dst)
		if dx != y || dy != x {
			t.Fatalf("tile (%d,%d) sent to (%d,%d)", x, y, dx, dy)
		}
	}
}

func TestBitComplementDestinations(t *testing.T) {
	n := testNet(t)
	in, _ := New(n, Config{Pattern: BitComplement, FlitRate: 0.05, DataRatio: 0, Source: testSource()})
	for src := 0; src < 16; src++ {
		dst, ok := in.dest(src, 16)
		if !ok || dst != 15-src {
			t.Fatalf("bit complement of %d = %d (ok=%v)", src, dst, ok)
		}
	}
}

func TestHotspotSkew(t *testing.T) {
	n := testNet(t)
	in, _ := New(n, Config{Pattern: Hotspot, HotspotTile: 5, HotspotFrac: 0.5,
		FlitRate: 0.05, DataRatio: 0, Source: testSource(), Seed: 9})
	hits := 0
	const draws = 4000
	for i := 0; i < draws; i++ {
		dst, ok := in.dest(0, 16)
		if ok && dst == 5 {
			hits++
		}
	}
	frac := float64(hits) / draws
	if frac < 0.45 || frac > 0.60 {
		t.Fatalf("hotspot fraction %g, want ~0.53 (0.5 + uniform share)", frac)
	}
}

func TestUniformRandomNeverSelf(t *testing.T) {
	n := testNet(t)
	in, _ := New(n, Config{Pattern: UniformRandom, FlitRate: 0.05, DataRatio: 0, Source: testSource(), Seed: 2})
	for i := 0; i < 1000; i++ {
		if dst, ok := in.dest(7, 16); !ok || dst == 7 {
			t.Fatal("uniform random returned self or failed")
		}
	}
}

func TestDataRatioHonored(t *testing.T) {
	n := testNet(t)
	in, _ := New(n, Config{Pattern: UniformRandom, FlitRate: 0.2, DataRatio: 0.25, Source: testSource(), Seed: 4})
	res := Run(n, in, 3000, true)
	data := float64(res.Stats.DataDelivered)
	total := float64(res.Stats.PacketsDelivered)
	if total == 0 {
		t.Fatal("nothing delivered")
	}
	if r := data / total; r < 0.20 || r > 0.30 {
		t.Fatalf("data ratio %g, want ~0.25", r)
	}
}

func TestBurstyInjectionStillDrains(t *testing.T) {
	n := testNet(t)
	in, err := New(n, Config{Pattern: UniformRandom, FlitRate: 0.1, DataRatio: 0.3,
		Source: testSource(), Seed: 8, Bursty: true, BurstLen: 100, BurstGap: 300})
	if err != nil {
		t.Fatal(err)
	}
	res := Run(n, in, 4000, true)
	if res.Sent == 0 {
		t.Fatal("bursty injector sent nothing")
	}
	if res.Delivered != res.Sent {
		t.Fatalf("delivered %d of %d", res.Delivered, res.Sent)
	}
}

func TestPatternStringsRoundTrip(t *testing.T) {
	for _, p := range []Pattern{UniformRandom, Transpose, BitComplement, Hotspot} {
		got, err := ParsePattern(p.String())
		if err != nil || got != p {
			t.Errorf("pattern %v round trip failed", p)
		}
	}
	if _, err := ParsePattern("starlight"); err == nil {
		t.Fatal("bogus pattern accepted")
	}
}

func TestSaturationMonotonicity(t *testing.T) {
	// Latency at a high injection rate must exceed latency at a low rate —
	// the qualitative property behind every Fig. 12 curve.
	lat := func(rate float64) float64 {
		n := testNet(t)
		in, err := New(n, Config{Pattern: UniformRandom, FlitRate: rate, DataRatio: 0.25, Source: testSource(), Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		res := Run(n, in, 4000, true)
		return res.Stats.AvgPacketLatency()
	}
	low, high := lat(0.05), lat(0.45)
	if high <= low {
		t.Fatalf("latency at 0.45 (%.1f) not above latency at 0.05 (%.1f)", high, low)
	}
}

// TestInjectorOdds holds the injector's precomputed odds to the Bool
// probabilities they replace at every benchmark's Fig. 9 configuration:
// flat, in a burst (prob*3) and in a quiet phase (prob/3).
// sim.TestHitMatchesBool holds Hit to Bool draw for draw.
func TestInjectorOdds(t *testing.T) {
	n := testNet(t)
	for _, m := range workload.Benchmarks() {
		// The Fig. 9 replay's configuration (cell.benchmarkTraffic in internal/experiments).
		avgFlits := m.DataRatio*float64(1+64/n.Config().FlitBytes) + (1 - m.DataRatio)
		cfg := Config{FlitRate: m.InjectionRate * avgFlits, DataRatio: m.DataRatio,
			Source: testSource(), Bursty: true, BurstLen: m.BurstLen, BurstGap: m.BurstGap}
		in, err := New(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		prob := cfg.FlitRate / avgFlits
		if in.flat != sim.NewOdds(prob) || in.burst != sim.NewOdds(prob*3) || in.quiet != sim.NewOdds(prob/3) {
			t.Fatalf("%s: odds %d/%d/%d, want those of %g, %g and %g",
				m.Name, in.flat, in.burst, in.quiet, prob, prob*3, prob/3)
		}
	}
}
