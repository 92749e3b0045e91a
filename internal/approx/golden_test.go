package approx_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"approxnoc/internal/approx"
	"approxnoc/internal/golden"
	"approxnoc/internal/value"
)

// TestGoldenVectors pins the AVCL don't-care masks: the checked-in
// vectors must regenerate byte-identically from today's mask logic.
func TestGoldenVectors(t *testing.T) {
	var buf bytes.Buffer
	genMasks(&buf, golden.Suite(&buf, "masks"))
	golden.Check(t, filepath.Join("testdata", "golden_masks.txt"), buf.Bytes())
}

func genMasks(w *bytes.Buffer, r *golden.Rand) {
	specials := []value.Word{0x00000000, 0x80000000, 0x7F800000, 0xFF800000, 0x7FC00000, 0x00000001}
	for _, pct := range []int{0, 1, 5, 10, 25, 100} {
		a, err := approx.New(pct)
		if err != nil {
			panic(err)
		}
		for i := 0; i < 12; i++ {
			iw := value.Word(r.Uint32()) >> uint(r.Intn(28)) // mixed magnitudes
			if r.Intn(2) == 0 {
				iw = value.Word(-int32(iw))
			}
			mask, _ := a.MaskWord(iw, value.Int32)
			fmt.Fprintf(w, "int pct=%d w=%08x mask=%08x\n", pct, iw, mask)

			var fw value.Word
			if i < 3 {
				fw = specials[r.Intn(len(specials))]
			} else {
				// A normal float: random sign, finite exponent, mantissa.
				fw = value.Word(uint32(r.Intn(2))<<31 | uint32(r.Intn(254)+1)<<23 | r.Uint32()&0x7FFFFF)
			}
			if m, ok := a.MaskWord(fw, value.Float32); ok {
				fmt.Fprintf(w, "float pct=%d w=%08x mask=%08x\n", pct, fw, m)
			} else {
				fmt.Fprintf(w, "float pct=%d w=%08x mask=bypass\n", pct, fw)
			}
		}
	}
}
