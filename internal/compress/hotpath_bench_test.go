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
					blocks := distBlocks(b, dist)
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

// distBlocks draws 256 blocks from the named workload's value model.
func distBlocks(b *testing.B, name string) []*value.Block {
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

// benchCodecs are the stateless schemes (staticCodecs names) that
// BenchmarkEncode and BenchmarkDecode price; the dictionary schemes need
// a warmed fabric and are priced whole by BenchmarkCodecHotPath.
var benchCodecs = []string{"fpcomp", "fpvaxx", "bdvaxx"}

// BenchmarkEncode prices the encode half alone, per scheme.
func BenchmarkEncode(b *testing.B) {
	blocks := distBlocks(b, "ssca2")
	for _, name := range benchCodecs {
		b.Run("codec="+name, func(b *testing.B) {
			c := staticCodecs(b)[name]()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Compress(1, blocks[i%len(blocks)])
			}
		})
	}
}

// BenchmarkDecode prices the decode half alone, per scheme, over the
// encodings BenchmarkEncode produces.
func BenchmarkDecode(b *testing.B) {
	blocks := distBlocks(b, "ssca2")
	for _, name := range benchCodecs {
		b.Run("codec="+name, func(b *testing.B) {
			c := staticCodecs(b)[name]()
			encs := make([]*Encoded, len(blocks))
			for i, blk := range blocks {
				enc := *c.Compress(1, blk)
				enc.Payload = append([]byte(nil), enc.Payload...)
				encs[i] = &enc
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Decompress(0, encs[i%len(encs)])
			}
		})
	}
}
