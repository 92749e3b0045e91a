package compress

import (
	"testing"
	"testing/quick"

	"approxnoc/internal/value"
)

// Decoders must be robust to damaged payloads: truncated or bit-flipped
// network representations may decode to wrong values (that is what FEC
// would be for) but must never panic, hang, or return a block of the
// wrong shape.
func TestDecodersSurviveCorruptPayloads(t *testing.T) {
	codecs := map[string]func() Codec{
		"baseline": NewBaseline,
		"fpcomp":   NewFPComp,
		"fpvaxx": func() Codec {
			c, _ := NewFPVaxx(10)
			return c
		},
		"bdcomp": NewBDComp,
		"dicomp": func() Codec {
			c, _ := NewDIComp(0, DefaultDictConfig(2))
			return c
		},
		"divaxx": func() Codec {
			c, _ := NewDIVaxx(0, DefaultDictConfig(2), 10)
			return c
		},
	}
	for name, mk := range codecs {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			c := mk()
			blk := value.BlockFromI32([]int32{0, 5, -100, 1 << 20, 0x7FFFFFFF, 42, 42, 42}, true)
			enc := c.Compress(1, blk)
			f := func(flip []byte, truncate uint8) bool {
				payload := append([]byte(nil), enc.Payload...)
				for i, b := range flip {
					if len(payload) == 0 {
						break
					}
					payload[i%len(payload)] ^= b
				}
				if int(truncate) < len(payload) {
					payload = payload[:truncate]
				}
				damaged := *enc
				damaged.Payload = payload
				dec, _ := c.Decompress(0, &damaged)
				return len(dec.Words) == enc.NumWords
			}
			if err := quick.Check(f, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Every codec's decoder must reconstruct the block its encoder accounted
// for: the words it changed are exactly the ones the encoder counted as
// approximate, with the error the encoder summed, for arbitrary inputs
// and for a clustered copy of them (word 0 plus an offset in ±256),
// whose out-of-range deltas the base-delta codecs must clamp.
func TestEncoderDecoderAgreementProperty(t *testing.T) {
	mks := []func() Codec{
		NewBaseline,
		NewFPComp,
		func() Codec { c, _ := NewFPVaxx(10); return c },
		func() Codec { c, _ := NewFPVaxxWindowed(10, 16, 4); return c },
		NewBDComp,
		func() Codec { c, _ := NewBDVaxx(10); return c },
	}
	for i, mk := range mks {
		c := mk()
		f := func(words []uint32, approximable bool) bool {
			if len(words) > 16 {
				words = words[:16]
			}
			clustered := make([]uint32, len(words))
			for j, w := range words {
				clustered[j] = words[0] + w%512 - 256
			}
			for _, ws := range [][]uint32{words, clustered} {
				blk := &value.Block{Words: ws, DType: value.Int32, Approximable: approximable}
				before := c.Stats()
				enc := c.Compress(1, blk)
				dec, _ := c.Decompress(0, enc)
				if len(dec.Words) != len(blk.Words) {
					return false
				}
				if err := statsMatchDecode(before, c.Stats(), blk, dec); err != nil {
					t.Log(err)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("codec %d: %v", i, err)
		}
	}
}

func TestDIVaxxWindowedConstruction(t *testing.T) {
	cfg := DefaultDictConfig(4)
	if _, err := NewDIVaxxWindowed(0, cfg, 10, 0, 2); err == nil {
		t.Fatal("zero window accepted")
	}
	c, err := NewDIVaxxWindowed(0, cfg, 10, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Scheme() != DIVaxx {
		t.Fatalf("scheme %v", c.Scheme())
	}
}

// Windowed DI-VAXX must bound each word by boost*threshold end to end.
func TestDIVaxxWindowedBoundedByBoost(t *testing.T) {
	const thresholdPct, window = 10, 16
	const boost = 2.0
	mk := func(node int) Codec {
		c, err := NewDIVaxxWindowed(node, DefaultDictConfig(2), thresholdPct, window, boost)
		if err != nil {
			panic(err)
		}
		return c
	}
	f := NewFabric(2, mk)
	r := testRand()
	bound := boost*float64(thresholdPct)/100 + 1e-9
	for iter := 0; iter < 400; iter++ {
		words := make([]uint32, 16)
		for i := range words {
			words[i] = uint32(1<<20 + r.Intn(4)*60000)
		}
		blk := &value.Block{Words: words, DType: value.Int32, Approximable: true}
		out := f.Transfer(0, 1, blk)
		for i := range words {
			if e := value.RelError(words[i], out.Words[i], value.Int32); e > bound {
				t.Fatalf("iter %d word %d error %g exceeds boosted cap", iter, i, e)
			}
		}
	}
}

// Aging must let a new hot phase displace stale dictionary entries.
func TestDictionaryAgingEnablesPhaseChange(t *testing.T) {
	cfg := DictConfig{Nodes: 2, Entries: 2, CandidateCap: 8, PromoteThreshold: 2, PendingCap: 2}
	mk := func(node int) Codec {
		c, _ := NewDIComp(node, cfg)
		return c
	}
	f := NewFabric(2, mk)
	// Phase 1: patterns A/B become very hot.
	p1 := value.BlockFromI32([]int32{111, 111, 222, 222, 111, 111, 222, 222}, false)
	for i := 0; i < 300; i++ {
		f.Transfer(0, 1, p1)
	}
	// Phase 2: only C/D appear. Aging plus the eviction guard must let
	// them take over within a bounded number of blocks.
	p2 := value.BlockFromI32([]int32{333, 333, 444, 444, 333, 333, 444, 444}, false)
	before := f.Codec(0).Stats().WordsExact
	for i := 0; i < 1500; i++ {
		f.Transfer(0, 1, p2)
	}
	gained := f.Codec(0).Stats().WordsExact - before
	// If the dictionary never turned over, phase 2 compresses nothing.
	if gained == 0 {
		t.Fatal("dictionary never adapted to the new phase")
	}
}
