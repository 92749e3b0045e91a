package noc_test

import (
	"runtime"
	"testing"

	"approxnoc/internal/compress"
	"approxnoc/internal/noc"
	"approxnoc/internal/topology"
	"approxnoc/internal/traffic"
	"approxnoc/internal/workload"
)

// BenchmarkStep measures one simulated cycle (Injector.Tick + Step) on
// the Table 1 mesh under DI-VAXX 10%, in the three regimes the repo
// benchmark's sim workloads put Step in: no traffic, the bursty replay
// experiments.Fig9 builds from a benchmark model (sim_fig9), and the
// undrained 0.6 flits/cycle/tile uniform-random load experiments.Fig12
// runs on streamcluster (sim_saturation). Like those workloads, each run
// is a fresh network stepped for 4000 cycles, so a saturated NI queue
// grows no further than it does there, and each run releases its network
// into one arena before the next is built on it, so it takes the released
// body and codecs as an experiment cell does. Allocations are reported per cycle; building and
// releasing each network run with the timer stopped and are not counted.
func BenchmarkStep(b *testing.B) {
	const window = 4000
	fig9, _ := workload.ByName("ssca2")
	blockFlits := float64(1 + 64/noc.DefaultConfig().FlitBytes)
	for _, bc := range []struct {
		name  string
		shape func() traffic.Config
	}{
		{"idle", nil},
		{"fig9", func() traffic.Config {
			return traffic.Config{
				Pattern:   traffic.UniformRandom,
				FlitRate:  fig9.InjectionRate * (fig9.DataRatio*blockFlits + (1 - fig9.DataRatio)),
				DataRatio: fig9.DataRatio,
				Source:    fig9.NewSource(1000010, 0.75), Seed: 7922,
				Bursty: true, BurstLen: fig9.BurstLen, BurstGap: fig9.BurstGap,
			}
		}},
		{"saturated", saturated},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var net *noc.Network
			var inj *traffic.Injector
			arena := new(noc.Arena)
			for i := 0; i < b.N; i++ {
				if i%window == 0 {
					b.StopTimer()
					if net != nil {
						net.Release()
					}
					net, inj = benchNet(b, arena, bc.shape)
					b.StartTimer()
				}
				if inj != nil {
					inj.Tick()
				}
				net.Step()
			}
		})
	}
}

// saturated is the undrained 0.6 flits/cycle/tile uniform-random load
// experiments.Fig12 runs on streamcluster's values.
func saturated() traffic.Config {
	sat, _ := workload.ByName("streamcluster")
	return traffic.Config{
		Pattern: traffic.UniformRandom, FlitRate: 0.6, DataRatio: 0.25,
		Source: sat.NewSource(31348, 0.75), Seed: 140,
	}
}

// TestSaturatedRunAllocs bounds what a saturated run allocates per packet
// sent: the saturated BenchmarkStep load, undrained for 4000 cycles, so NI
// source queues grow all run. A warm-up run of the same shape is released
// into an arena first, as every experiment cell releases its network, so
// the measured run is built on the warm-up's body and codecs, and its
// queues, reorder lists and decode FIFOs thread through the warm-up's
// slabs, handed over in order: a slot that carried a data packet mostly
// carries one again, with
// payload capacity. What is left is a payload copy that outgrows its slot
// and the DI-VAXX codecs' own growth. Building the network is not
// counted. Per-run slabs, queue slices, reorder maps and decode slices
// made this run allocate 0.299 times per packet sent; pooled slabs and
// slab-threaded lists, 0.137; whole bodies and allocation-free DI
// evictions, 0.003.
func TestSaturatedRunAllocs(t *testing.T) {
	const cycles, limit = 4000, 0.02
	arena := new(noc.Arena)
	warm, inj := benchNet(t, arena, saturated)
	traffic.Run(warm, inj, cycles, false)
	warm.Release()
	net, inj := benchNet(t, arena, saturated)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	traffic.Run(net, inj, cycles, false)
	runtime.ReadMemStats(&after)
	s := net.Stats()
	perPacket := float64(after.Mallocs-before.Mallocs) / float64(s.PacketsSent)
	t.Logf("%d packets sent, %.4f allocations per packet", s.PacketsSent, perPacket)
	if s.PacketsDelivered*5 > s.PacketsSent*4 {
		t.Fatalf("%d of %d packets delivered: the load is not past saturation", s.PacketsDelivered, s.PacketsSent)
	}
	if perPacket > limit {
		t.Fatalf("a saturated run allocated %.3f times per packet sent, over the %.2f limit", perPacket, limit)
	}
}

// benchNet builds the Table 1 mesh under DI-VAXX 10% on arena, with the
// injector of shape when it is not nil.
func benchNet(b testing.TB, arena *noc.Arena, shape func() traffic.Config) (*noc.Network, *traffic.Injector) {
	topo, err := topology.NewCMesh(4, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	factory, err := arena.Factory(compress.DIVaxx, compress.DefaultDictConfig(topo.Tiles()), 10)
	if err != nil {
		b.Fatal(err)
	}
	net, err := arena.New(topo, noc.DefaultConfig(), factory)
	if err != nil {
		b.Fatal(err)
	}
	if shape == nil {
		return net, nil
	}
	inj, err := traffic.New(net, shape())
	if err != nil {
		b.Fatal(err)
	}
	return net, inj
}
