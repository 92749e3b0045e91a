package compress

import (
	"testing"

	"approxnoc/internal/value"
	"approxnoc/internal/workload"
)

// Steady-state allocation gates for the encode path: after a warmup
// pass sizes every codec-owned buffer, Compress must not allocate at all. check.sh runs these without -race (the race runtime
// itself allocates).

func allocBlocks(t testing.TB) []*value.Block {
	t.Helper()
	m, err := workload.ByName("ssca2")
	if err != nil {
		t.Fatal(err)
	}
	src := m.NewSource(3, 0.75)
	blocks := make([]*value.Block, 64)
	for i := range blocks {
		blocks[i] = src.NextBlock()
	}
	return blocks
}

func gateZeroAllocs(t *testing.T, name string, c Codec, blocks []*value.Block) {
	t.Helper()
	// Warmup: let every codec-owned buffer reach its steady-state capacity.
	for _, blk := range blocks {
		c.Compress(1, blk)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		c.Compress(1, blocks[i%len(blocks)])
		i++
	})
	if allocs != 0 {
		t.Errorf("%s: Compress allocates %.1f objects/block in steady state, want 0", name, allocs)
	}
}

func TestCompressZeroAllocs(t *testing.T) {
	blocks := allocBlocks(t)
	for name, mk := range staticCodecs(t) {
		t.Run(name, func(t *testing.T) { gateZeroAllocs(t, name, mk(), blocks) })
	}
}

// TestCompressZeroAllocsDict gates the dictionary schemes with their PMTs
// warmed by real traffic, so the encode path exercises CAM/TCAM hits and
// the per-destination index vectors, not just the raw fallback.
func TestCompressZeroAllocsDict(t *testing.T) {
	blocks := allocBlocks(t)
	for _, scheme := range []Scheme{DIComp, DIVaxx} {
		t.Run(scheme.String(), func(t *testing.T) {
			const nodes = 2
			factory, err := FactoryFor(scheme, nodes, 10)
			if err != nil {
				t.Fatal(err)
			}
			f := NewFabric(nodes, factory)
			// Warm the decoder candidate tables and encoder PMTs.
			for i := 0; i < 4; i++ {
				for _, blk := range blocks {
					f.Transfer(0, 1, blk)
				}
			}
			gateZeroAllocs(t, scheme.String(), f.Codec(0), blocks)
		})
	}
}

// TestFabricTransferSteadyAllocs pins the whole offline transfer loop:
// the encode side must contribute nothing, leaving only the decode-side
// block construction.
func TestFabricTransferSteadyAllocs(t *testing.T) {
	blocks := allocBlocks(t)
	factory, err := FactoryFor(FPVaxx, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFabric(2, factory)
	for _, blk := range blocks {
		f.Transfer(0, 1, blk)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		f.Transfer(0, 1, blocks[i%len(blocks)])
		i++
	})
	// Decompress builds one fresh *value.Block per transfer: the header
	// and its Words array, exactly. It is not 0 because the NI delivery
	// handlers and the serve batches keep decoded blocks past the next
	// Decompress, so the block cannot be codec-owned the way an encoding
	// is (ROADMAP, "Codec data path"). Anything else is a kernel that
	// started allocating.
	if allocs != 2 {
		t.Errorf("Transfer allocates %.1f objects/block in steady state, want exactly 2 (the decoded block and its words)", allocs)
	}
}
