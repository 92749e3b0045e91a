package noc_test

import (
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
// grows no further than it does there. Allocations are reported per
// cycle; building each network runs with the timer stopped and is not
// counted.
func BenchmarkStep(b *testing.B) {
	const window = 4000
	fig9, _ := workload.ByName("ssca2")
	sat, _ := workload.ByName("streamcluster")
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
		{"saturated", func() traffic.Config {
			return traffic.Config{
				Pattern: traffic.UniformRandom, FlitRate: 0.6, DataRatio: 0.25,
				Source: sat.NewSource(31348, 0.75), Seed: 140,
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var net *noc.Network
			var inj *traffic.Injector
			for i := 0; i < b.N; i++ {
				if i%window == 0 {
					b.StopTimer()
					net, inj = benchNet(b, bc.shape)
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

func benchNet(b *testing.B, shape func() traffic.Config) (*noc.Network, *traffic.Injector) {
	topo, err := topology.NewCMesh(4, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	factory, err := compress.FactoryFor(compress.DIVaxx, topo.Tiles(), 10)
	if err != nil {
		b.Fatal(err)
	}
	net, err := noc.New(topo, noc.DefaultConfig(), factory)
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
