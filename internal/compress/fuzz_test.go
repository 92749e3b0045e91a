// Differential fuzzing of the optimized codecs against internal/oracle.
// The targets live in the external test package so they can import the
// oracle (which itself imports compress) without a cycle. Run them via
// `make fuzz-smoke` or directly:
//
//	go test -run '^$' -fuzz '^FuzzFPCRoundTrip$' -fuzztime 30s ./internal/compress
package compress_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"approxnoc/internal/compress"
	"approxnoc/internal/oracle"
	"approxnoc/internal/value"
)

// fuzzWords derives up to maxWords 32-bit words from raw fuzz bytes.
func fuzzWords(data []byte, maxWords int) []value.Word {
	n := len(data) / 4
	if n > maxWords {
		n = maxWords
	}
	words := make([]value.Word, n)
	for i := range words {
		words[i] = binary.BigEndian.Uint32(data[4*i:])
	}
	return words
}

func fuzzBlock(data []byte, isFloat, approximable bool, maxWords int) *value.Block {
	dt := value.Int32
	if isFloat {
		dt = value.Float32
	}
	return &value.Block{Words: fuzzWords(data, maxWords), DType: dt, Approximable: approximable}
}

// FuzzFPCRoundTrip differential-tests FP-COMP against the reference
// encoder/decoder bit for bit, and FP-VAXX against the CheckBlock
// invariants at an arbitrary threshold.
func FuzzFPCRoundTrip(f *testing.F) {
	f.Add([]byte{}, false, false, uint32(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 7, 0xFF, 0xFF, 0xFF, 0xF9}, false, true, uint32(10))
	f.Add([]byte{0xAB, 0xCD, 0x00, 0x00, 0x00, 0x7F, 0x00, 0xFF, 0xDE, 0xAD, 0xBE, 0xEF}, true, true, uint32(5))
	f.Fuzz(func(t *testing.T, data []byte, isFloat, approximable bool, pct uint32) {
		blk := fuzzBlock(data, isFloat, approximable, 64)
		thr := int(pct % 101)

		exact := compress.NewCodec(compress.FPComp, compress.DictConfig{}, 0, 0)
		enc := exact.Compress(1, blk)
		refPayload, refBits := oracle.FPCEncode(blk.Words)
		if enc.Bits != refBits {
			t.Fatalf("FP-COMP emitted %d bits, oracle says %d for %#x", enc.Bits, refBits, blk.Words)
		}
		if !bytes.Equal(enc.Payload, refPayload) {
			t.Fatalf("FP-COMP payload % x diverges from oracle % x for %#x", enc.Payload, refPayload, blk.Words)
		}
		dec, _ := exact.Decompress(0, enc)
		if err := oracle.CheckBlock(blk, enc, dec, 0); err != nil {
			t.Fatalf("FP-COMP: %v", err)
		}
		refDec, err := oracle.FPCDecode(enc.Payload, len(blk.Words))
		if err != nil {
			t.Fatalf("oracle cannot decode FP-COMP payload: %v", err)
		}
		for i := range refDec {
			if refDec[i] != blk.Words[i] {
				t.Fatalf("oracle decode of FP-COMP payload changed word %d: %#08x -> %#08x",
					i, blk.Words[i], refDec[i])
			}
		}

		vaxx := compress.NewCodec(compress.FPVaxx, compress.DictConfig{}, thr, 0)
		encV := vaxx.Compress(1, blk)
		decV, _ := vaxx.Decompress(0, encV)
		if err := oracle.CheckBlock(blk, encV, decV, thr); err != nil {
			t.Fatalf("FP-VAXX@%d: %v", thr, err)
		}
	})
}

// FuzzFPCDecodeArbitrary feeds arbitrary bytes to the production FP
// decoder and to the oracle's: the block always has NumWords words, they
// agree on every word of every code that decodes whole, and from the
// first unused prefix or overrun on the production words are zero.
func FuzzFPCDecodeArbitrary(f *testing.F) {
	// One word per Fig. 5 row, whole, cut short, and with the unused prefix.
	rows := &value.Block{Words: []value.Word{0, 0, 0, 5, 0x75, 0x4321, 0x4321_0000, 0x0012_0034, 0xDEAD_BEEF}}
	whole := compress.NewCodec(compress.FPComp, compress.DictConfig{}, 0, 0).Compress(1, rows).Payload
	f.Add(whole, uint8(len(rows.Words)))
	f.Add(whole[:len(whole)-3], uint8(len(rows.Words)))
	f.Add(whole, uint8(2)) // the zero run overflows the block
	f.Add([]byte{0b110_00000}, uint8(4))
	f.Add([]byte{}, uint8(16))
	f.Fuzz(func(t *testing.T, payload []byte, n uint8) {
		numWords := int(n % 65)
		dec, _ := compress.NewCodec(compress.FPComp, compress.DictConfig{}, 0, 0).Decompress(0, &compress.Encoded{Scheme: compress.FPComp, NumWords: numWords, Payload: payload})
		if len(dec.Words) != numWords {
			t.Fatalf("decoded %d words from % x, want %d", len(dec.Words), payload, numWords)
		}
		ref, err := oracle.FPCDecode(payload, numWords)
		if err == nil && len(ref) != numWords {
			t.Fatalf("oracle decoded %d words without error, want %d", len(ref), numWords)
		}
		for i, w := range dec.Words {
			want := value.Word(0)
			if i < len(ref) {
				want = ref[i]
			}
			if w != want {
				t.Fatalf("word %d of % x (%d words) = %#08x, oracle says %#08x (oracle error: %v)", i, payload, numWords, w, want, err)
			}
		}
	})
}

// FuzzBDIRoundTrip differential-tests BD-COMP against the reference
// base-delta encoder/decoder and BD-VAXX against the invariants.
func FuzzBDIRoundTrip(f *testing.F) {
	f.Add([]byte{}, false, false, uint32(0))
	f.Add([]byte{0, 0, 0, 100, 0, 0, 0, 101, 0, 0, 0, 99}, false, true, uint32(10))
	f.Add([]byte{0x41, 0x20, 0, 0, 0x41, 0x21, 0, 0}, true, true, uint32(25))
	f.Fuzz(func(t *testing.T, data []byte, isFloat, approximable bool, pct uint32) {
		blk := fuzzBlock(data, isFloat, approximable, 64)
		thr := int(pct % 101)

		exact := compress.NewCodec(compress.BDComp, compress.DictConfig{}, 0, 0)
		enc := exact.Compress(1, blk)
		refPayload, refBits := oracle.BDIEncode(blk.Words)
		if enc.Bits != refBits {
			t.Fatalf("BD-COMP emitted %d bits, oracle says %d for %#x", enc.Bits, refBits, blk.Words)
		}
		if !bytes.Equal(enc.Payload, refPayload) {
			t.Fatalf("BD-COMP payload % x diverges from oracle % x for %#x", enc.Payload, refPayload, blk.Words)
		}
		dec, _ := exact.Decompress(0, enc)
		if err := oracle.CheckBlock(blk, enc, dec, 0); err != nil {
			t.Fatalf("BD-COMP: %v", err)
		}
		refDec, err := oracle.BDIDecode(enc.Payload, len(blk.Words))
		if err != nil {
			t.Fatalf("oracle cannot decode BD-COMP payload: %v", err)
		}
		for i := range refDec {
			if refDec[i] != blk.Words[i] {
				t.Fatalf("oracle decode of BD-COMP payload changed word %d: %#08x -> %#08x",
					i, blk.Words[i], refDec[i])
			}
		}

		vaxx := compress.NewCodec(compress.BDVaxx, compress.DictConfig{}, thr, 0)
		encV := vaxx.Compress(1, blk)
		decV, _ := vaxx.Decompress(0, encV)
		if err := oracle.CheckBlock(blk, encV, decV, thr); err != nil {
			t.Fatalf("BD-VAXX@%d: %v", thr, err)
		}
	})
}

// FuzzDictRoundTrip drives traffic with recurring patterns through a
// two-node dictionary fabric — DI-COMP exact and DI-VAXX at an arbitrary
// threshold — and audits every transfer: round-trip identity / error
// bound via CheckBlock, encoder/decoder PMT synchronization after the
// notification protocol settles, and zero decode mismatches.
func FuzzDictRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 0, 0, 1, 1, 2, 0x83, 0x44, 0x25}, uint32(0))
	f.Add([]byte{0, 0, 0, 42, 0, 0, 0, 43, 0, 0, 1, 0, 0xFF, 0xFF, 0xFF, 0xFF, 7, 7, 7, 0xC7, 0x27, 7}, uint32(10))
	f.Fuzz(func(t *testing.T, data []byte, pct uint32) {
		if len(data) < 17 {
			return
		}
		thr := int(pct % 101)
		// A small alphabet of recurring patterns drives the promotion
		// machinery; the remaining bytes script the traffic.
		var alpha [4]value.Word
		for i := range alpha {
			alpha[i] = binary.BigEndian.Uint32(data[4*i:])
		}
		script := data[16:]
		if len(script) > 48 {
			script = script[:48]
		}

		cfg := compress.DefaultDictConfig(2)
		newFabric := func(scheme compress.Scheme) *compress.Fabric {
			factory, err := compress.FactoryWithDict(scheme, cfg, thr)
			if err != nil {
				t.Fatal(err)
			}
			return compress.NewFabric(2, factory)
		}
		fabrics := map[compress.Scheme]*compress.Fabric{
			compress.DIComp: newFabric(compress.DIComp),
			compress.DIVaxx: newFabric(compress.DIVaxx),
		}

		for _, b := range script {
			blk := &value.Block{
				Words:        make([]value.Word, 8),
				DType:        value.Int32,
				Approximable: b&0x40 != 0,
			}
			if b&0x80 != 0 {
				blk.DType = value.Float32
			}
			for j := range blk.Words {
				w := alpha[(int(b)+j)%len(alpha)]
				if b&0x10 != 0 && j == 0 {
					w += uint32(b) // occasional near-miss of a hot pattern
				}
				blk.Words[j] = w
			}
			src, dst := 0, 1
			if b&0x20 != 0 {
				src, dst = 1, 0
			}
			for scheme, fab := range fabrics {
				enc := fab.Codec(src).Compress(dst, blk)
				out, notifs := fab.Codec(dst).Decompress(src, enc)
				fab.Deliver(notifs)
				if err := oracle.CheckBlock(blk, enc, out, thr); err != nil {
					t.Fatalf("%v@%d: %v", scheme, thr, err)
				}
				for _, pair := range [][2]int{{src, dst}, {dst, src}} {
					if err := oracle.CheckPMTSync(fab.Codec(pair[0]), fab.Codec(pair[1]), pair[0], pair[1]); err != nil {
						t.Fatalf("%v@%d: %v", scheme, thr, err)
					}
				}
				for node := 0; node < 2; node++ {
					if mm, ok := fab.Codec(node).(interface{ DecodeMismatches() uint64 }); ok && mm.DecodeMismatches() != 0 {
						t.Fatalf("%v@%d: node %d saw %d decode mismatches", scheme, thr, node, mm.DecodeMismatches())
					}
				}
			}
		}
	})
}
