package compress

import (
	"bytes"
	"testing"

	"approxnoc/internal/value"
	"approxnoc/internal/workload"
)

// Steady-state allocation gates for the codec: after a warmup pass sizes
// every codec-owned buffer, Compress and DecompressInto must not allocate
// at all. check.sh runs these without -race (the race runtime itself
// allocates).

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

// TestDecompressIntoZeroAllocs gates the decode half: once dst and the
// codec's notification buffer have grown, DecompressInto allocates
// nothing, under every scheme. The static codecs decode copies of their
// own encodings. The dictionary codecs decode live traffic on a two-node
// fabric whose blocks keep eight hot words in the pattern table and
// cycle cold ones past it: the cold words stay raw, their promotions
// blocked by hotter entries, so the measured transfers exercise the
// learning path and evict nothing.
func TestDecompressIntoZeroAllocs(t *testing.T) {
	blocks := allocBlocks(t)
	for name, mk := range staticCodecs(t) {
		t.Run(name, func(t *testing.T) {
			c := mk()
			encs := make([]Encoded, len(blocks))
			for i, blk := range blocks {
				encs[i] = *c.Compress(1, blk)
				encs[i].Payload = bytes.Clone(encs[i].Payload)
			}
			var dst value.Block
			for i := range encs {
				c.DecompressInto(&dst, 0, &encs[i])
			}
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				c.DecompressInto(&dst, 0, &encs[i%len(encs)])
				i++
			})
			if allocs != 0 {
				t.Errorf("DecompressInto allocates %.1f objects/block in steady state, want 0", allocs)
			}
		})
	}

	// Hot words at least 14 % apart, so DI-VAXX keeps all eight instead
	// of approximating one by another and leaving a slot to churn.
	hot := make([]value.Word, 8)
	for i := range hot {
		hot[i] = value.Word(i+1) << 28
	}
	r := testRand()
	dictBlocks := make([]*value.Block, 4)
	for k := range dictBlocks {
		var words []value.Word
		for i, h := range hot {
			words = append(words, h)
			if i < 6 {
				words = append(words, h) // six hot words twice, two once
			}
		}
		words = append(words, value.Word(r.Uint32()), value.Word(r.Uint32())) // two cold words
		dictBlocks[k] = &value.Block{Words: words, DType: value.Int32, Approximable: true}
	}
	for _, scheme := range []Scheme{DIComp, DIVaxx} {
		t.Run(scheme.String(), func(t *testing.T) {
			factory, err := FactoryFor(scheme, 2, 10)
			if err != nil {
				t.Fatal(err)
			}
			f := NewFabric(2, factory)
			var dst value.Block
			i := 0
			transfer := func() {
				enc := f.Codec(0).Compress(1, dictBlocks[i%len(dictBlocks)])
				f.Deliver(f.Codec(1).DecompressInto(&dst, 0, enc))
				i++
			}
			for k := 0; k < 64; k++ {
				transfer()
			}
			before := f.Stats()
			allocs := testing.AllocsPerRun(200, transfer)
			after := f.Stats()
			if after.WordsRaw == before.WordsRaw || after.NotificationsSent != before.NotificationsSent {
				t.Fatalf("measured transfers sent %d raw words and %d notifications, want some and none",
					after.WordsRaw-before.WordsRaw, after.NotificationsSent-before.NotificationsSent)
			}
			if allocs != 0 {
				t.Errorf("DecompressInto allocates %.1f objects/block in steady state, want 0", allocs)
			}
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
	// Transfer returns a fresh *value.Block, which Decompress builds: the
	// header and its Words array, exactly. The serve batches keep decoded
	// blocks past the next Decompress, so Transfer does not decode into
	// storage of its own (ROADMAP, "Codec data path"). Anything else is a
	// kernel that started allocating.
	if allocs != 2 {
		t.Errorf("Transfer allocates %.1f objects/block in steady state, want exactly 2 (the decoded block and its words)", allocs)
	}
}
