package compress

import (
	"fmt"
	"math"

	"approxnoc/internal/sim"
	"approxnoc/internal/value"
)

// testRand returns a deterministic generator for table-free randomized
// tests in this package.
func testRand() *sim.Rand { return sim.NewRand(0xC0FFEE) }

// statsMatchDecode checks one block's encoder stats (the delta from
// before to after its Compress) against what the decoder reconstructed:
// every word is counted exactly once, the words the decoder changed are
// exactly the approximate ones, and the error sum is theirs.
func statsMatchDecode(before, after OpStats, orig, dec *value.Block) error {
	n := uint64(len(orig.Words))
	classified := after.WordsExact + after.WordsApprox + after.WordsRaw -
		(before.WordsExact + before.WordsApprox + before.WordsRaw)
	if after.WordsIn-before.WordsIn != n || classified != n {
		return fmt.Errorf("%d words in, %d counted in and %d classified", n, after.WordsIn-before.WordsIn, classified)
	}
	changed, sumErr := uint64(0), 0.0
	for i, w := range orig.Words {
		if dec.Words[i] != w {
			changed++
			sumErr += value.RelError(w, dec.Words[i], orig.DType)
		}
	}
	if approx := after.WordsApprox - before.WordsApprox; approx != changed {
		return fmt.Errorf("decoder changed %d words, encoder counted %d approximate", changed, approx)
	}
	if d := after.SumRelError - before.SumRelError; math.Abs(d-sumErr) > 1e-9 {
		return fmt.Errorf("encoder error sum %g, decoded words deviate by %g", d, sumErr)
	}
	return nil
}

// NewCodec is the codec FactoryWithDict(s, cfg, thresholdPct) makes for
// node: how the tests of this package and of compress_test build one
// codec. cfg matters to the dictionary schemes only. It panics where the
// factory refuses, so a test of a refusal calls FactoryWithDict itself.
func NewCodec(s Scheme, cfg DictConfig, thresholdPct, node int) Codec {
	f, err := FactoryWithDict(s, cfg, thresholdPct)
	if err != nil {
		panic(err)
	}
	c := f(node)
	if c == nil {
		panic(fmt.Sprintf("compress: %v makes no codec for node %d of %d", s, node, cfg.Nodes))
	}
	return c
}
