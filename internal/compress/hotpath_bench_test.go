package compress

import (
	"fmt"
	"testing"

	"approxnoc/internal/value"
	"approxnoc/internal/workload"
)

// BenchmarkCodecHotPath is the codec hot-path grid: dictionary transfers
// across PMT sizes, error thresholds, and workload value distributions.
// It drives Fabric.Transfer — the production offline path — so the
// numbers price exactly what the serve gateway and the cache-simulator
// substrate execute per block.
func BenchmarkCodecHotPath(b *testing.B) {
	distBlocks := func(name string) []*value.Block {
		m, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		src := m.NewSource(7, 0.75)
		blocks := make([]*value.Block, 256)
		for i := range blocks {
			blocks[i] = src.NextBlock()
		}
		return blocks
	}
	for _, entries := range []int{8, 32} {
		for _, threshold := range []int{5, 10} {
			for _, dist := range []string{"ssca2", "x264", "blackscholes"} {
				name := fmt.Sprintf("entries=%d/threshold=%d/dist=%s", entries, threshold, dist)
				b.Run(name, func(b *testing.B) {
					cfg := DefaultDictConfig(2)
					cfg.Entries = entries
					factory, err := FactoryWithDict(DIVaxx, cfg, threshold)
					if err != nil {
						b.Fatal(err)
					}
					f := NewFabric(2, factory)
					blocks := distBlocks(dist)
					// Warm the dictionaries so steady-state hit rates apply.
					for _, blk := range blocks {
						f.Transfer(0, 1, blk)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						f.Transfer(0, 1, blocks[i%len(blocks)])
					}
				})
			}
		}
	}
}

// BenchmarkEncode prices the encode half alone, per scheme.
func BenchmarkEncode(b *testing.B) {
	m, err := workload.ByName("ssca2")
	if err != nil {
		b.Fatal(err)
	}
	src := m.NewSource(7, 0.75)
	blocks := make([]*value.Block, 256)
	for i := range blocks {
		blocks[i] = src.NextBlock()
	}
	mk := func(name string) Codec {
		switch name {
		case "fpcomp":
			return NewFPComp()
		case "fpvaxx":
			c, err := NewFPVaxx(10)
			if err != nil {
				b.Fatal(err)
			}
			return c
		case "bdvaxx":
			c, err := NewBDVaxx(10)
			if err != nil {
				b.Fatal(err)
			}
			return c
		default:
			b.Fatalf("unknown codec %s", name)
			return nil
		}
	}
	for _, name := range []string{"fpcomp", "fpvaxx", "bdvaxx"} {
		b.Run("codec="+name, func(b *testing.B) {
			c := mk(name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Compress(1, blocks[i%len(blocks)])
			}
		})
	}
}
