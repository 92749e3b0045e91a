package main

import (
	"fmt"
	"time"

	"approxnoc/internal/compress"
	"approxnoc/internal/noc"
	"approxnoc/internal/oracle"
	"approxnoc/internal/serve"
	"approxnoc/internal/sim"
	"approxnoc/internal/value"
	"approxnoc/internal/workload"
)

// Shape shared by the wire and codec workloads (Table 1 of the paper:
// 32 tiles, 10 % default threshold, 75 % of data approximable).
const (
	fabricNodes    = 32
	defaultThrPct  = 10
	approxShare    = 0.75
	blocksPerModel = 4096
)

// Pool phases of a block stream, see genBlocks. Stateless codecs get
// many: nothing carries over between blocks, so more pools only steady
// the results. The dictionary workload gets one: a PMT needs a
// stationary stream to learn from — its compression ratio falls from
// 1.23 to 1.10 at eight phases — and one pool is what the simulator's
// tiles share.
const (
	statelessPhases  = 32
	dictionaryPhases = 1
)

// checkStride is how often a timed repetition checks a delivery against
// the contract: about 1 in 64, and odd so the samples walk over every
// record of an even-sized pool instead of revisiting a few.
const checkStride = 63

// blockModels are the two value models the wire and codec workloads draw
// from: ssca2 is the integer-heavy, pool-heavy extreme of the eight
// benchmarks and blackscholes the float-heavy one, so static-pattern,
// dictionary, int-mask and float-mask paths all see traffic.
var blockModels = []string{"ssca2", "blackscholes"}

// record is one pre-generated request: everything the program under test
// sees of the seed.
type record struct {
	src, dst int
	blk      *value.Block
	thr      int    // serve.Request.ThresholdPct
	tenant   string // serve.Request.Tenant
}

// effective is the error bound, in percent, the delivered copy of r must
// honour under scheme: 0 means bit-identical.
func (r *record) effective(scheme compress.Scheme) int {
	return oracle.EffectiveThreshold(scheme, r.blk, serve.EffectiveThreshold(r.thr, defaultThrPct))
}

func (r *record) request(tag uint64) serve.Request {
	return serve.Request{Src: r.src, Dst: r.dst, Block: r.blk, ThresholdPct: r.thr, Tenant: r.tenant, Tag: tag}
}

// genBlocks draws perModel 16-word blocks per model and returns them with
// the mean host time of one Source.NextBlock call. The stream runs
// through phases phases; each phase has its own pair of Sources, one
// per model, drawn from alternately. A Source's hot-value pool is a few
// dozen values under a Zipf law, so a handful of them decide how well a
// run compresses and how fast it encodes: one pool per run would make
// every metric hinge on the seed's luck. Phases average that over many
// pools while every tile still sees the same pool at any one time, as
// the simulator's shared Source gives it.
func genBlocks(seed uint64, perModel, phases int) ([]*value.Block, float64, error) {
	models := make([]workload.Model, len(blockModels))
	for i, name := range blockModels {
		m, err := workload.ByName(name)
		if err != nil {
			return nil, 0, err
		}
		models[i] = m
	}
	blocks := make([]*value.Block, 0, perModel*len(models))
	perPhase := perModel / phases
	start := time.Now()
	for phase := 0; phase < phases; phase++ {
		srcs := make([]*workload.Source, len(models))
		for i, m := range models {
			srcs[i] = m.NewSource(seed*1000003+uint64(phase*len(models)+i)*7919+1, approxShare)
		}
		for k := 0; k < perPhase; k++ {
			for _, s := range srcs {
				blocks = append(blocks, s.NextBlock())
			}
		}
	}
	return blocks, float64(time.Since(start)) / float64(len(blocks)), nil
}

// genRecords turns blocks into requests between seeded random tile pairs.
// With mixed set it builds the wire_mixed_qos traffic: thirds of
// exact-class, 5 %-override and default-threshold requests, each under
// its own tenant, over 4-, 16- and 64-word blocks in all nine
// combinations.
func genRecords(seed uint64, blocks []*value.Block, mixed bool) []record {
	rng := sim.NewRand(seed*2654435761 + 97)
	recs := make([]record, len(blocks))
	for i, blk := range blocks {
		src := rng.Intn(fabricNodes)
		r := record{src: src, dst: (src + 1 + rng.Intn(fabricNodes-1)) % fabricNodes, blk: blk}
		if mixed {
			switch i % 3 {
			case 0:
				r.thr, r.tenant = serve.ThresholdExact, tenantExact
			case 1:
				r.thr, r.tenant = 5, tenantFive
			default:
				r.thr, r.tenant = serve.DefaultThreshold, tenantDefault
			}
			r.blk = resize(blocks, i, [3]int{4, 16, 64}[(i/3)%3])
		}
		recs[i] = r
	}
	return recs
}

const (
	tenantExact   = "tx"
	tenantFive    = "t5"
	tenantDefault = "td"
)

// resize returns blocks[i] cut or grown to words words; growth appends
// the following blocks of the same data type so every word keeps the
// interpretation it was generated under.
func resize(blocks []*value.Block, i, words int) *value.Block {
	b := blocks[i]
	if words == len(b.Words) {
		return b
	}
	out := &value.Block{DType: b.DType, Approximable: b.Approximable}
	out.Words = append(out.Words, b.Words...)
	for j := i + 1; len(out.Words) < words; j++ {
		if nb := blocks[j%len(blocks)]; nb.DType == b.DType {
			out.Words = append(out.Words, nb.Words...)
		}
	}
	out.Words = out.Words[:words]
	return out
}

// checkDelivered is the client-side contract of §3.2: a delivered block
// keeps its shape, every word is within effPct of the word sent (effPct 0
// means bit-identical), and the encoding is no larger than raw plus the
// scheme's header bits. bitsOut < 0 skips the size check for callers
// that cannot observe the encoding.
func checkDelivered(sent, got *value.Block, effPct int, scheme compress.Scheme, bitsOut int) error {
	if got == nil {
		return fmt.Errorf("no block delivered")
	}
	if len(got.Words) != len(sent.Words) || got.DType != sent.DType || got.Approximable != sent.Approximable {
		return fmt.Errorf("delivered block shape %d/%v/%v, sent %d/%v/%v",
			len(got.Words), got.DType, got.Approximable, len(sent.Words), sent.DType, sent.Approximable)
	}
	if max := oracle.MaxBits(scheme, len(sent.Words)); bitsOut > max {
		return fmt.Errorf("%v encoding of %d bits exceeds raw+header bound %d", scheme, bitsOut, max)
	}
	bound := float64(effPct)/100 + 1e-12 // one rounding of the division, as in internal/oracle
	for i, w := range sent.Words {
		if g := got.Words[i]; g != w && (effPct == 0 || value.RelError(w, g, sent.DType) > bound) {
			return fmt.Errorf("word %d: sent %#08x, delivered %#08x, allowed error %d%%", i, w, g, effPct)
		}
	}
	return nil
}

// modelSums accumulates, over fixed work, what the three results of the
// modelled design are computed from.
type modelSums struct {
	blocks, words, bitsIn, bitsOut, cycles int64
	relErr                                 float64
}

// add accounts one delivered block whose encoding took bitsOut bits.
func (m *modelSums) add(sent, got *value.Block, bitsOut int) {
	m.blocks++
	m.words += int64(len(sent.Words))
	m.bitsIn += int64(32 * len(sent.Words))
	m.bitsOut += int64(bitsOut)
	m.cycles += modelledCycles(bitsOut)
	for i, w := range sent.Words {
		if g := got.Words[i]; g != w {
			m.relErr += value.RelError(w, g, sent.DType)
		}
	}
}

func (m *modelSums) merge(o modelSums) {
	m.blocks += o.blocks
	m.words += o.words
	m.bitsIn += o.bitsIn
	m.bitsOut += o.bitsOut
	m.cycles += o.cycles
	m.relErr += o.relErr
}

func (m *modelSums) metrics() map[string]float64 {
	return map[string]float64{
		"compression_ratio":      float64(m.bitsIn) / float64(m.bitsOut),
		"data_quality":           1 - m.relErr/float64(m.words),
		"sim_pkt_latency_cycles": float64(m.cycles) / float64(m.blocks),
	}
}

// modelledCycles is the zero-load cost the modelled NoC charges one block:
// the §4.3 codec pipeline plus a head flit and the encoded payload's body
// flits (noc.DefaultConfig). It is the wire and codec workloads' reading
// of sim_pkt_latency_cycles — exact for a seed and lower when blocks
// compress better, which is the paper's argument.
func modelledCycles(bitsOut int) int64 {
	cfg := noc.DefaultConfig()
	bytes := (bitsOut + 7) / 8
	return int64(cfg.CompressLatency + cfg.DecompressLatency + 1 + (bytes+cfg.FlitBytes-1)/cfg.FlitBytes)
}
