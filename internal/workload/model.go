// Package workload generates the benchmark data traffic the paper feeds
// its NoC simulator from gem5 traces of PARSEC (simlarge) and the SSCA2
// graph benchmark. We do not have gem5 or the original traces, so each
// benchmark is modelled by the statistical structure of its transmitted
// cache-block values — the only property the compression and approximation
// mechanisms are sensitive to:
//
//   - the int/float mix of blocks (VAXX dispatches on data type),
//   - zero words and narrow integers (FP-COMP's static patterns),
//   - a hot pool of recurring values (DI-COMP's dictionary locality),
//   - small relative jitter around hot values (the approximate similarity
//     VAXX converts into extra matches),
//   - the data-to-control packet ratio and injection burstiness (queueing
//     behaviour in Fig. 9).
//
// The per-benchmark parameters are qualitative calibrations taken from the
// paper's own observations (e.g. SSCA2 is data-intensive with high value
// sharing; streamcluster's uniform coordinates have little exact
// repetition; x264 residuals are mostly narrow integers). See DESIGN.md's
// substitution table.
package workload

import (
	"fmt"
	"math"

	"approxnoc/internal/sim"
	"approxnoc/internal/value"
)

// Model is the statistical description of one benchmark's data traffic.
type Model struct {
	Name string

	// FloatFrac is the fraction of data blocks carrying float32 words.
	FloatFrac float64
	// ZeroProb is the per-word probability of a zero word.
	ZeroProb float64
	// Narrow4/8/16Prob are per-word probabilities of integers fitting
	// 4/8/16-bit sign extension (integer blocks only).
	Narrow4Prob  float64
	Narrow8Prob  float64
	Narrow16Prob float64
	// PoolSize is the number of hot values the benchmark recirculates.
	PoolSize int
	// PoolProb is the per-word probability of drawing from the hot pool.
	PoolProb float64
	// JitterProb is the probability a pool draw is perturbed rather than
	// exact; JitterPct is the relative perturbation magnitude. Together
	// they are the approximate-similarity knob: exact draws feed DI-COMP's
	// dictionary, jittered draws are what only VAXX can still match.
	JitterProb float64
	JitterPct  float64
	// SeqProb is the probability a data block is a pointer/index array:
	// a base address plus small strides. These blocks are what base-delta
	// compression exploits; they are never annotated approximable
	// (addresses must stay precise).
	SeqProb float64
	// DataRatio is the fraction of packets that are data packets; the rest
	// are single-flit control packets.
	DataRatio float64
	// InjectionRate is the per-tile packet injection probability per cycle
	// used for the Fig. 9 trace replays.
	InjectionRate float64
	// BurstLen and BurstGap shape the on/off injection process (cycles).
	BurstLen, BurstGap int
}

// Benchmarks returns the eight workloads of the evaluation (PARSEC
// subset + SSCA2), in the paper's figure order.
func Benchmarks() []Model {
	return []Model{
		{
			Name: "blackscholes", FloatFrac: 0.90, ZeroProb: 0.06,
			Narrow4Prob: 0.10, Narrow8Prob: 0.08, Narrow16Prob: 0.08,
			PoolSize: 48, PoolProb: 0.60, JitterProb: 0.50, JitterPct: 0.02,
			SeqProb:   0.04,
			DataRatio: 0.30, InjectionRate: 0.055, BurstLen: 200, BurstGap: 600,
		},
		{
			Name: "bodytrack", FloatFrac: 0.60, ZeroProb: 0.14,
			Narrow4Prob: 0.12, Narrow8Prob: 0.12, Narrow16Prob: 0.12,
			PoolSize: 64, PoolProb: 0.40, JitterProb: 0.50, JitterPct: 0.05,
			SeqProb:   0.08,
			DataRatio: 0.12, InjectionRate: 0.020, BurstLen: 150, BurstGap: 900,
		},
		{
			Name: "canneal", FloatFrac: 0.05, ZeroProb: 0.20,
			Narrow4Prob: 0.08, Narrow8Prob: 0.10, Narrow16Prob: 0.22,
			PoolSize: 32, PoolProb: 0.35, JitterProb: 0, JitterPct: 0,
			SeqProb:   0.35,
			DataRatio: 0.10, InjectionRate: 0.020, BurstLen: 100, BurstGap: 900,
		},
		{
			Name: "fluidanimate", FloatFrac: 0.85, ZeroProb: 0.10,
			Narrow4Prob: 0.10, Narrow8Prob: 0.10, Narrow16Prob: 0.12,
			PoolSize: 64, PoolProb: 0.45, JitterProb: 0.50, JitterPct: 0.04,
			SeqProb:   0.08,
			DataRatio: 0.12, InjectionRate: 0.020, BurstLen: 120, BurstGap: 800,
		},
		{
			Name: "streamcluster", FloatFrac: 0.95, ZeroProb: 0.03,
			Narrow4Prob: 0.08, Narrow8Prob: 0.08, Narrow16Prob: 0.10,
			PoolSize: 128, PoolProb: 0.30, JitterProb: 0.80, JitterPct: 0.08,
			SeqProb:   0.05,
			DataRatio: 0.22, InjectionRate: 0.045, BurstLen: 400, BurstGap: 400,
		},
		{
			Name: "swaptions", FloatFrac: 0.90, ZeroProb: 0.05,
			Narrow4Prob: 0.08, Narrow8Prob: 0.08, Narrow16Prob: 0.12,
			PoolSize: 48, PoolProb: 0.55, JitterProb: 0.50, JitterPct: 0.03,
			SeqProb:   0.05,
			DataRatio: 0.25, InjectionRate: 0.050, BurstLen: 300, BurstGap: 500,
		},
		{
			Name: "x264", FloatFrac: 0.05, ZeroProb: 0.35,
			Narrow4Prob: 0.15, Narrow8Prob: 0.15, Narrow16Prob: 0.08,
			PoolSize: 32, PoolProb: 0.25, JitterProb: 0.30, JitterPct: 0.02,
			SeqProb:   0.10,
			DataRatio: 0.28, InjectionRate: 0.053, BurstLen: 250, BurstGap: 450,
		},
		{
			Name: "ssca2", FloatFrac: 0.40, ZeroProb: 0.22,
			Narrow4Prob: 0.05, Narrow8Prob: 0.06, Narrow16Prob: 0.05,
			PoolSize: 64, PoolProb: 0.62, JitterProb: 0.30, JitterPct: 0.03,
			SeqProb:   0.15,
			DataRatio: 0.55, InjectionRate: 0.030, BurstLen: 500, BurstGap: 300,
		},
	}
}

// ByName returns the model for a benchmark name.
func ByName(name string) (Model, error) {
	for _, m := range Benchmarks() {
		if m.Name == name {
			return m, nil
		}
	}
	return Model{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Source generates the cache-block value stream of one benchmark.
type Source struct {
	model      Model
	rng        *sim.Rand
	intPool    []int32
	floatPool  []float32
	zipf       zipf
	approxFrac float64
}

// zipf is the Zipf law of pool ranks for one pool size: the CDF, and a
// guide table that makes a draw O(1) expected time (Chen and Asau's
// indexed search). guide has K entries, K the smallest power of two ≥
// 2·size, and guide[k] is the first rank whose CDF is ≥ k/K.
type zipf struct {
	cdf   []float64
	guide []int32
}

// newZipf builds the rank law of a pool of size values. Pool draws
// follow a Zipf distribution: frequent-value-locality studies (and the
// dictionary-compression work the paper builds on) observe that a
// handful of values dominate on-chip traffic, which is what makes an
// 8-entry PMT sufficient.
func newZipf(size int) zipf {
	cdf := make([]float64, size)
	total := 0.0
	for i := 0; i < size; i++ {
		total += 1 / math.Pow(float64(i+1), 1.2)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	k := 1
	for k < 2*size {
		k <<= 1
	}
	guide := make([]int32, k)
	rank := 0
	for i := range guide {
		for cdf[rank] < float64(i)/float64(k) {
			rank++
		}
		guide[i] = int32(rank)
	}
	return zipf{cdf: cdf, guide: guide}
}

// index returns the first rank whose CDF is ≥ u, for u in [0, 1): the
// lower bound a binary search over the CDF finds. With k = ⌊u·K⌋, every
// rank before guide[k] has CDF < k/K ≤ u, so the walk forward from
// guide[k] stops at exactly that rank; it stops at the last rank at the
// latest, whose CDF is total/total = 1. K is a power of two, so u·K is
// exact, and it is below K because u is below 1.
func (z *zipf) index(u float64) int {
	i := int(z.guide[int(u*float64(len(z.guide)))])
	for z.cdf[i] < u {
		i++
	}
	return i
}

// sharedZipf holds the rank law of every pool size Benchmarks uses, built
// once: a source of one of these sizes takes its table from here.
var sharedZipf = func() map[int]zipf {
	t := map[int]zipf{}
	for _, m := range Benchmarks() {
		if _, ok := t[m.PoolSize]; !ok {
			t[m.PoolSize] = newZipf(m.PoolSize)
		}
	}
	return t
}()

// NewSource builds a deterministic block source for the model.
// approxFrac is the fraction of data blocks annotated approximable (the
// paper's default is 0.75; Fig. 14 sweeps 0.25/0.50/0.75).
func (m Model) NewSource(seed uint64, approxFrac float64) *Source {
	s := &Source{model: m, rng: sim.NewRand(seed), approxFrac: approxFrac}
	size := m.PoolSize
	if size <= 0 {
		size = 1
	}
	s.intPool = make([]int32, size)
	s.floatPool = make([]float32, size)
	for i := range s.intPool {
		// Hot values spread over several magnitudes so VAXX masks differ.
		mag := 1 << uint(6+s.rng.Intn(18))
		s.intPool[i] = int32(mag + s.rng.Intn(mag))
		s.floatPool[i] = (0.5 + float32(s.rng.Float64())) * float32(int64(1)<<uint(s.rng.Intn(16)))
	}
	z, ok := sharedZipf[size]
	if !ok {
		z = newZipf(size)
	}
	s.zipf = z
	return s
}

// poolIndex draws a Zipf-distributed pool rank.
func (s *Source) poolIndex() int { return s.zipf.index(s.rng.Float64()) }

// Model returns the generating model.
func (s *Source) Model() Model { return s.model }

// NextBlock produces one cache block of WordsPerBlock words.
func (s *Source) NextBlock() *value.Block {
	return s.NextBlockInto(value.NewBlock(value.WordsPerBlock, value.Int32, false))
}

// NextBlockInto overwrites b with the next cache block of WordsPerBlock
// words, reusing b.Words' storage, and returns b. It makes the same draws
// as NextBlock, so a source yields one stream through either.
func (s *Source) NextBlockInto(b *value.Block) *value.Block {
	if cap(b.Words) < value.WordsPerBlock {
		b.Words = make([]value.Word, value.WordsPerBlock)
	}
	b.Words = b.Words[:value.WordsPerBlock]
	if s.rng.Bool(s.model.SeqProb) {
		b.DType, b.Approximable = value.Int32, false
		s.fillSeq(b.Words)
		return b
	}
	isFloat := s.rng.Bool(s.model.FloatFrac)
	b.Approximable = s.rng.Bool(s.approxFrac)
	if isFloat {
		b.DType = value.Float32
		s.fillFloat(b.Words)
	} else {
		b.DType = value.Int32
		s.fillInt(b.Words)
	}
	return b
}

// fillSeq writes a pointer/index-array block: base address plus a small
// stride — precise data with high intra-block value clustering.
func (s *Source) fillSeq(words []value.Word) {
	strides := [...]int32{4, 8, 16, 64}
	stride := strides[s.rng.Intn(len(strides))]
	base := int32(0x1000_0000 + s.rng.Intn(1<<24)*4)
	for i := range words {
		words[i] = value.I32(base + int32(i)*stride)
	}
}

func (s *Source) fillInt(words []value.Word) {
	m := &s.model
	for i := range words {
		var v int32
		u := s.rng.Float64()
		switch {
		case u < m.ZeroProb: // a zero word
		case u < m.ZeroProb+m.PoolProb:
			v = s.intPool[s.poolIndex()]
			if s.rng.Bool(m.JitterProb) {
				v = jitterInt(v, m.JitterPct, s.rng)
			}
		case u < m.ZeroProb+m.PoolProb+m.Narrow4Prob:
			v = int32(s.rng.Intn(16)) - 8
		case u < m.ZeroProb+m.PoolProb+m.Narrow4Prob+m.Narrow8Prob:
			v = int32(s.rng.Intn(256)) - 128
		case u < m.ZeroProb+m.PoolProb+m.Narrow4Prob+m.Narrow8Prob+m.Narrow16Prob:
			v = int32(s.rng.Intn(1<<16)) - 1<<15
		default:
			v = int32(s.rng.Uint32())
		}
		words[i] = value.I32(v)
	}
}

func (s *Source) fillFloat(words []value.Word) {
	m := &s.model
	for i := range words {
		var v float32
		u := s.rng.Float64()
		switch {
		case u < m.ZeroProb: // a zero word
		case u < m.ZeroProb+m.PoolProb:
			v = s.floatPool[s.poolIndex()]
			if s.rng.Bool(m.JitterProb) {
				v = jitterFloat(v, m.JitterPct, s.rng)
			}
		default:
			v = float32((s.rng.Float64()*2 - 1) * 1e6)
		}
		words[i] = value.F32(v)
	}
}

func jitterInt(base int32, pct float64, r *sim.Rand) int32 {
	if pct == 0 {
		return base
	}
	d := float64(base) * pct * (2*r.Float64() - 1)
	return base + int32(d)
}

func jitterFloat(base float32, pct float64, r *sim.Rand) float32 {
	if pct == 0 {
		return base
	}
	return base * float32(1+pct*(2*r.Float64()-1))
}

// NextIsData reports whether the next packet should be a data packet,
// per the model's data-to-control ratio.
func (s *Source) NextIsData() bool { return s.rng.Bool(s.model.DataRatio) }

// NextIsDataAt draws the data/control decision at an explicit ratio,
// overriding the model's (the Fig. 12 synthetic runs use 25:75).
func (s *Source) NextIsDataAt(ratio float64) bool { return s.rng.Bool(ratio) }
