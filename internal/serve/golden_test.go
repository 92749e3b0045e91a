package serve_test

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"approxnoc/internal/golden"
	"approxnoc/internal/serve"
	"approxnoc/internal/value"
)

// TestGoldenVectors pins the wire protocol byte layout: the checked-in
// request/response frames must regenerate identically from today's
// marshaler. A diff means the wire format changed — a compatibility
// break for deployed peers, so make it deliberate, then regenerate with
// `GOLDEN=update go test ./...`.
func TestGoldenVectors(t *testing.T) {
	var buf bytes.Buffer
	genFrames(&buf, golden.Suite(&buf, "frames"))
	golden.Check(t, filepath.Join("testdata", "golden_frames.txt"), buf.Bytes())
}

func genFrames(w *bytes.Buffer, r *golden.Rand) {
	thresholds := []int{-1, 0, 5, 10, 25}
	for i := 0; i < 16; i++ {
		n := r.Intn(8) + 1
		dt := value.Int32
		if r.Intn(2) == 1 {
			dt = value.Float32
		}
		blk := value.NewBlock(n, dt, r.Intn(2) == 1)
		for j := range blk.Words {
			blk.Words[j] = r.FPCWord()
		}
		req := serve.Request{
			Src: r.Intn(4), Dst: r.Intn(4),
			ThresholdPct: thresholds[r.Intn(len(thresholds))],
			Block:        blk,
		}
		frame, err := serve.MarshalRequest(uint64(i+1), req)
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(w, "req id=%d hex=%x\n", i+1, frame)
	}
	for i := 0; i < 12; i++ {
		res := serve.Result{Tag: uint64(100 + i)}
		switch r.Intn(3) {
		case 0:
			blk := value.NewBlock(r.Intn(8)+1, value.Int32, false)
			for j := range blk.Words {
				blk.Words[j] = r.FPCWord()
			}
			res.Block = blk
			res.BitsIn = 32 * len(blk.Words)
			res.BitsOut = r.Intn(res.BitsIn + 1)
		case 1:
			res.Err = serve.ErrOverloaded
		default:
			res.Err = errors.New("vector error message")
		}
		frame, err := serve.MarshalResponse(res)
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(w, "res tag=%d hex=%x\n", res.Tag, frame)
	}
}
