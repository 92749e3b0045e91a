package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"approxnoc/internal/sim"
	"approxnoc/internal/value"
)

// streamDigest is an FNV-64a digest of a source's first n blocks: every
// word, the data type and the approximable flag of each block.
func streamDigest(s *Source, n int) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for i := 0; i < n; i++ {
		blk := s.NextBlock()
		for _, w := range blk.Words {
			binary.LittleEndian.PutUint32(b[:], w)
			h.Write(b[:])
		}
		flag := byte(0)
		if blk.Approximable {
			flag = 1
		}
		h.Write([]byte{byte(blk.DType), flag})
	}
	return h.Sum64()
}

// poolDigest is an FNV-64a digest of what NewSource draws, the int and
// float pools in order, followed by the source's first 64 pool ranks.
func poolDigest(s *Source) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for i := range s.intPool {
		binary.LittleEndian.PutUint32(b[:], uint32(s.intPool[i]))
		h.Write(b[:])
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(s.floatPool[i]))
		h.Write(b[:])
	}
	for i := 0; i < 64; i++ {
		binary.LittleEndian.PutUint32(b[:], uint32(s.poolIndex()))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestSourceStreamPinned pins every model's block stream at seeds 1 and
// 7 (2 048 blocks each) and its pools and first 64 pool ranks. Every
// simulated payload, every codec and wire workload block and so every
// golden is a function of these streams: a change to the generator's
// arithmetic or to the draws under it must not move a single word.
func TestSourceStreamPinned(t *testing.T) {
	want := map[string][2][2]uint64{ // seed 1 {blocks, pools}, seed 7 {blocks, pools}
		"blackscholes":  {{0x482dbab77ce4f571, 0xd4f46cd5dd9b3558}, {0x10ef6823f8742b4d, 0x15c7876a618675f9}},
		"bodytrack":     {{0x2d7be1330b956cf2, 0x5afa2c7913825278}, {0xc8a66fee1868d135, 0x89095b14dee3c141}},
		"canneal":       {{0x3ec7f0cce5e3dc10, 0xb1d80c9d3dbcfffe}, {0x33b01a8076338b7e, 0x8d92ab987d291541}},
		"fluidanimate":  {{0xd9a7e401daa0193c, 0x5afa2c7913825278}, {0xb1ed7662798f03de, 0x89095b14dee3c141}},
		"streamcluster": {{0x1e6ad54f8f8decc6, 0x5ace351b3c490896}, {0x4a9414e97cc1b79e, 0x31d6cac731cf01f4}},
		"swaptions":     {{0x1f717d660937eb04, 0xd4f46cd5dd9b3558}, {0x370c1ba55edcc19b, 0x15c7876a618675f9}},
		"x264":          {{0x33997b2c17fbd4a7, 0xb1d80c9d3dbcfffe}, {0x58a57ad5660669f0, 0x8d92ab987d291541}},
		"ssca2":         {{0x35d66ce3f98920c7, 0x5afa2c7913825278}, {0xd7140a47df15c3a4, 0x89095b14dee3c141}},
	}
	for _, m := range Benchmarks() {
		for i, seed := range []uint64{1, 7} {
			blocks := streamDigest(m.NewSource(seed, 0.75), 2048)
			pools := poolDigest(m.NewSource(seed, 0.75))
			if w := want[m.Name][i]; blocks != w[0] || pools != w[1] {
				t.Errorf("%s seed %d: blocks digest %#x, pools digest %#x; want %#x, %#x", m.Name, seed, blocks, pools, w[0], w[1])
			}
		}
	}
}

// lowerBound is the binary search poolIndex used before the guide table:
// the first rank whose CDF is ≥ u, or the last rank when none is.
func lowerBound(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestPoolIndexMatchesLowerBound holds the guide-table draw to the binary
// search it replaced, on the shared table of every pool size Benchmarks
// uses and on sizes around powers of two, at every bucket edge k/K, at
// every CDF value and its two neighbours, at the ends of [0, 1), and at
// 10⁶ seeded draws.
func TestPoolIndexMatchesLowerBound(t *testing.T) {
	tables := map[int]zipf{}
	for _, size := range []int{1, 2, 3, 5, 255, 256, 257, 1000} {
		tables[size] = newZipf(size)
	}
	for _, m := range Benchmarks() {
		tables[m.PoolSize] = sharedZipf[m.PoolSize]
	}
	for size, z := range tables {
		k := len(z.guide)
		if k&(k-1) != 0 || k < 2*size || k >= 4*size {
			t.Fatalf("size %d: %d guide buckets, want the smallest power of two ≥ %d", size, k, 2*size)
		}
		if last := z.cdf[size-1]; last != 1 {
			t.Fatalf("size %d: the CDF ends at %v, not 1", size, last)
		}
		us := []float64{0, 1 - 0x1p-53}
		for i := 0; i < k; i++ {
			us = append(us, float64(i)/float64(k))
		}
		for _, c := range z.cdf {
			us = append(us, math.Nextafter(c, 0), c, math.Nextafter(c, 1))
		}
		r := sim.NewRand(uint64(size))
		for i := 0; i < 1_000_000; i++ {
			us = append(us, r.Float64())
		}
		for _, u := range us {
			if u < 0 || u >= 1 {
				continue
			}
			if got, want := z.index(u), lowerBound(z.cdf, u); got != want {
				t.Fatalf("size %d, u = %v: index %d, lower bound %d", size, u, got, want)
			}
		}
	}
}

// TestNewSourceAllocs pins a source's construction at four allocations:
// the Source, its Rand and its two pools. The Zipf tables of every
// benchmark's pool size are shared, built once. The sim workloads build
// a source per experiment cell, so this guards their allocs_per_op.
func TestNewSourceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is skewed under the race detector")
	}
	for _, m := range Benchmarks() {
		if allocs := testing.AllocsPerRun(100, func() { sourceSink = m.NewSource(1, 0.75) }); allocs != 4 {
			t.Errorf("%s: NewSource makes %.1f allocations, want 4", m.Name, allocs)
		}
	}
}

var (
	sourceSink *Source
	blockSink  *value.Block
)

// BenchmarkNextBlock times one NextBlock, allocation included, per
// model: the go test counterpart of the repo benchmark's
// workload.nextblock_ns.
func BenchmarkNextBlock(b *testing.B) {
	for _, m := range Benchmarks() {
		b.Run(m.Name, func(b *testing.B) {
			s := m.NewSource(1, 0.75)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blockSink = s.NextBlock()
			}
		})
	}
}

// BenchmarkNewSource times building one source of each model in turn.
func BenchmarkNewSource(b *testing.B) {
	models := Benchmarks()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sourceSink = models[i%len(models)].NewSource(uint64(i), 0.75)
	}
}
