package compress

import (
	"bytes"
	"runtime"
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
	// Transfer returns a fresh *value.Block, which Decompress builds:
	// one object, the header and its 16 words together. The serve
	// batches keep decoded blocks past the next Decompress, so Transfer
	// does not decode into storage of its own (ROADMAP, "Codec data
	// path"). Anything else is a kernel that started allocating.
	if allocs != 1 {
		t.Errorf("Transfer allocates %.1f objects/block in steady state, want exactly 1 (the decoded block, header and words in one object)", allocs)
	}
}

// TestHandleUpdateEvictZeroAllocs gates the encoder-PMT write path: once
// the table is full, a NotifUpdate that evicts one entry and installs
// another allocates nothing on either dictionary scheme.
func TestHandleUpdateEvictZeroAllocs(t *testing.T) {
	for _, scheme := range []Scheme{DIComp, DIVaxx} {
		t.Run(scheme.String(), func(t *testing.T) {
			factory, err := FactoryFor(scheme, 2, 10)
			if err != nil {
				t.Fatal(err)
			}
			d := factory(0).(*dictCodec)
			entries := d.cfg.Entries
			// Patterns a high byte apart never share a DI-VAXX family, so
			// each update is a distinct entry.
			update := func(k int) Notification {
				return Notification{From: 1, To: 0, Kind: NotifUpdate,
					Pattern: value.Word(k+1) << 24, DType: value.Int32, Index: k % entries}
			}
			for k := 0; k < entries; k++ {
				d.HandleNotification(update(k))
			}
			// Every slot now holds frequency 1, so each new pattern evicts
			// slot 0's occupant, which is the previous new pattern.
			k := entries
			var last value.Word
			allocs := testing.AllocsPerRun(200, func() {
				n := update(entries + k%entries)
				last = n.Pattern
				d.HandleNotification(n)
				k++
			})
			for i := 0; i < entries; i++ {
				want := update(i).Pattern
				if i == 0 {
					want = last
				}
				if e, _, ok := d.pmt.SlotState(i); !ok || !e.Matches(want) {
					t.Fatalf("slot %d holds %+v, want the entry for %#x", i, e, want)
				}
			}
			if allocs != 0 {
				t.Errorf("an evicting NotifUpdate allocates %.1f objects, want 0", allocs)
			}
		})
	}
}

// TestDictCodecBuildAllocs pins what a dictionary codec costs to build:
// every NI of a simulated network builds one per run. A 32-node DI-VAXX
// codec must take at most 10 allocations and 6 KiB. One slice of 8-byte
// refs per table, the node sets and candidate tracker in one array, the
// pending table at its cap and the TCAM's header in the codec's keep it
// at 10; per-slot slices of 24-byte refs and []bool valid bits took 27
// allocations and 9.2 KiB.
func TestDictCodecBuildAllocs(t *testing.T) {
	factory, err := FactoryWithDict(DIVaxx, DefaultDictConfig(32), 10)
	if err != nil {
		t.Fatal(err)
	}
	build := func() { factory(5) }
	allocs := testing.AllocsPerRun(50, build)
	const builds = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	size := float64(after.TotalAlloc-before.TotalAlloc) / builds
	t.Logf("a 32-node DI-VAXX codec builds in %.0f allocations, %.0f bytes", allocs, size)
	if allocs > 10 || size > 6<<10 {
		t.Fatalf("a 32-node DI-VAXX codec took %.0f allocations and %.0f bytes, want at most 10 and %d", allocs, size, 6<<10)
	}
}

// TestEvictionHandshakeZeroAllocs gates the decoder's eviction path: once
// the PMT is full, a candidate that promotes over the coldest entry
// (invalidate to the encoder that maps it), the encoder's ack and the
// install that completes it allocate nothing. The awaiting set is a
// fixed bitset per decoder slot and the pending table never grows.
func TestEvictionHandshakeZeroAllocs(t *testing.T) {
	cfg := DictConfig{Nodes: 32, Entries: 2, CandidateCap: 4, PromoteThreshold: 2, PendingCap: 1}
	c := NewCodec(DIComp, cfg, 0, 0)
	d := c.(*dictCodec)
	const enc = 7
	buf := make([]Notification, 0, 8)
	k := 0
	cycle := func() {
		k++
		p := value.Word(k) << 8
		out := d.observeRawWord(buf[:0], enc, p, value.Int32)
		out = d.observeRawWord(out, enc, p, value.Int32)
		if len(out) == 1 && out[0].Kind == NotifUpdate {
			return // a promotion into a free slot: the warm-up
		}
		if len(out) != 1 || out[0].Kind != NotifInvalidate || out[0].To != enc {
			t.Fatalf("promotion %d sent %+v, want one invalidate to node %d", k, out, enc)
		}
		ack := Notification{From: enc, To: 0, Kind: NotifInvalidateAck, Index: out[0].Index}
		if up := d.HandleNotification(ack); len(up) != 1 || up[0].Kind != NotifUpdate || up[0].Pattern != p {
			t.Fatalf("the ack for promotion %d sent %+v, want the update installing %#x", k, up, p)
		}
	}
	for i := 0; i < cfg.Entries+2; i++ {
		cycle()
	}
	writes := d.stats.TableWrites
	allocs := testing.AllocsPerRun(100, cycle)
	if got := d.stats.TableWrites - writes; got != 101 {
		t.Fatalf("%d installs in 101 handshakes", got)
	}
	if len(d.pending) != 0 {
		t.Fatalf("%d evictions still pending", len(d.pending))
	}
	if allocs != 0 {
		t.Errorf("a promote-invalidate-ack-install handshake allocates %.1f objects, want 0", allocs)
	}
}
