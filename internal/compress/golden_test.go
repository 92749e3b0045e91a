package compress_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"approxnoc/internal/compress"
	"approxnoc/internal/golden"
	"approxnoc/internal/value"
)

// TestGoldenVectors pins the codec wire formats: the checked-in vectors
// must regenerate byte-identically from today's encoders. A diff means
// the encoded format changed — decide whether that is intended, then
// regenerate with `GOLDEN=update go test ./...`.
func TestGoldenVectors(t *testing.T) {
	for _, s := range []struct {
		name string
		gen  func(w *bytes.Buffer, r *golden.Rand)
	}{{"fpc", genFPC}, {"bdi", genBDI}, {"dict", genDict}} {
		var buf bytes.Buffer
		s.gen(&buf, golden.Suite(&buf, s.name))
		golden.Check(t, filepath.Join("testdata", "golden_"+s.name+".txt"), buf.Bytes())
	}
}

func wordsStr(words []value.Word) string {
	if len(words) == 0 {
		return "-"
	}
	parts := make([]string, len(words))
	for i, w := range words {
		parts[i] = fmt.Sprintf("%08x", w)
	}
	return strings.Join(parts, ",")
}

func genFPC(w *bytes.Buffer, r *golden.Rand) {
	c := compress.NewCodec(compress.FPComp, compress.DictConfig{}, 0, 0)
	for i := 0; i < 48; i++ {
		n := r.Intn(17) // 0..16 words
		blk := value.NewBlock(n, value.Int32, false)
		for j := range blk.Words {
			blk.Words[j] = r.FPCWord()
		}
		enc := c.Compress(1, blk)
		fmt.Fprintf(w, "words=%s bits=%d payload=%x\n", wordsStr(blk.Words), enc.Bits, enc.Payload)
	}
}

func genBDI(w *bytes.Buffer, r *golden.Rand) {
	c := compress.NewCodec(compress.BDComp, compress.DictConfig{}, 0, 0)
	for i := 0; i < 48; i++ {
		n := r.Intn(17)
		blk := value.NewBlock(n, value.Int32, false)
		switch r.Intn(4) {
		case 0: // all zero
		case 1, 2: // clustered around a base, delta width varies
			base := r.Uint32()
			width := []uint{3, 7, 15, 20}[r.Intn(4)]
			for j := range blk.Words {
				delta := int32(r.Intn(1<<width) - 1<<(width-1))
				blk.Words[j] = value.Word(int32(base) + delta)
			}
		default: // incompressible
			for j := range blk.Words {
				blk.Words[j] = value.Word(r.Uint32())
			}
		}
		enc := c.Compress(1, blk)
		fmt.Fprintf(w, "words=%s bits=%d payload=%x\n", wordsStr(blk.Words), enc.Bits, enc.Payload)
	}
}

func genDict(w *bytes.Buffer, r *golden.Rand) {
	cfg := compress.DefaultDictConfig(2)
	type namedFabric struct {
		name string
		fab  *compress.Fabric
	}
	mk := func(name string, scheme compress.Scheme, thr int) namedFabric {
		factory, err := compress.FactoryWithDict(scheme, cfg, thr)
		if err != nil {
			panic(err)
		}
		return namedFabric{name, compress.NewFabric(2, factory)}
	}
	fabs := []namedFabric{mk("dicomp", compress.DIComp, 0), mk("divaxx5", compress.DIVaxx, 5)}

	alpha := make([]value.Word, 6)
	for i := range alpha {
		alpha[i] = value.Word(r.Uint32())
	}
	for i := 0; i < 40; i++ {
		blk := &value.Block{Words: make([]value.Word, 8), DType: value.Int32, Approximable: i%3 != 0}
		for j := range blk.Words {
			word := alpha[r.Intn(len(alpha))]
			if r.Intn(8) == 0 {
				word ^= 1 << uint(r.Intn(8)) // near-miss of a hot pattern
			}
			blk.Words[j] = word
		}
		src := r.Intn(2)
		dst := 1 - src
		for _, nf := range fabs {
			enc := nf.fab.Codec(src).Compress(dst, blk)
			out, notifs := nf.fab.Codec(dst).Decompress(src, enc)
			nf.fab.Deliver(notifs)
			fmt.Fprintf(w, "%s %d>%d words=%s bits=%d payload=%x decoded=%s\n",
				nf.name, src, dst, wordsStr(blk.Words), enc.Bits, enc.Payload, wordsStr(out.Words))
		}
	}
}
