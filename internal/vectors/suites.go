package vectors

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"time"

	"approxnoc/internal/approx"
	"approxnoc/internal/compress"
	"approxnoc/internal/obs"
	"approxnoc/internal/serve"
	"approxnoc/internal/stats"
	"approxnoc/internal/value"
)

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

// fpcWord draws a word biased toward the Fig. 5 frequent-pattern
// classes so every prefix shows up in the vectors.
func fpcWord(r *rng) value.Word {
	switch r.intn(8) {
	case 0, 1:
		return 0
	case 2:
		return value.Word(int32(r.intn(16) - 8)) // sign-extended 4-bit
	case 3:
		return value.Word(int32(r.intn(256) - 128)) // sign-extended 8-bit
	case 4:
		return value.Word(int32(r.intn(1<<16) - 1<<15)) // sign-extended 16-bit
	case 5:
		return value.Word(r.uint32() & 0xFFFF) // zero upper half
	case 6:
		// Each 16-bit half is a sign-extended byte.
		h1 := uint32(uint16(int16(int8(r.intn(256)))))
		h2 := uint32(uint16(int16(int8(r.intn(256)))))
		return value.Word(h1<<16 | h2)
	default:
		return value.Word(r.uint32())
	}
}

func genFPC(w *bytes.Buffer, r *rng) {
	c := compress.NewFPComp()
	for i := 0; i < 48; i++ {
		n := r.intn(17) // 0..16 words
		blk := value.NewBlock(n, value.Int32, false)
		for j := range blk.Words {
			blk.Words[j] = fpcWord(r)
		}
		enc := c.Compress(1, blk)
		fmt.Fprintf(w, "words=%s bits=%d payload=%x\n", wordsStr(blk.Words), enc.Bits, enc.Payload)
	}
}

func genBDI(w *bytes.Buffer, r *rng) {
	c := compress.NewBDComp()
	for i := 0; i < 48; i++ {
		n := r.intn(17)
		blk := value.NewBlock(n, value.Int32, false)
		switch r.intn(4) {
		case 0: // all zero
		case 1, 2: // clustered around a base, delta width varies
			base := r.uint32()
			width := []uint{3, 7, 15, 20}[r.intn(4)]
			for j := range blk.Words {
				delta := int32(r.intn(1<<width) - 1<<(width-1))
				blk.Words[j] = value.Word(int32(base) + delta)
			}
		default: // incompressible
			for j := range blk.Words {
				blk.Words[j] = value.Word(r.uint32())
			}
		}
		enc := c.Compress(1, blk)
		fmt.Fprintf(w, "words=%s bits=%d payload=%x\n", wordsStr(blk.Words), enc.Bits, enc.Payload)
	}
}

func genDict(w *bytes.Buffer, r *rng) {
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
		alpha[i] = value.Word(r.uint32())
	}
	for i := 0; i < 40; i++ {
		blk := &value.Block{Words: make([]value.Word, 8), DType: value.Int32, Approximable: i%3 != 0}
		for j := range blk.Words {
			word := alpha[r.intn(len(alpha))]
			if r.intn(8) == 0 {
				word ^= 1 << uint(r.intn(8)) // near-miss of a hot pattern
			}
			blk.Words[j] = word
		}
		src := r.intn(2)
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

// genDictSnap pins the PMT snapshot wire format (DESIGN.md §12): each
// dictionary scheme runs deterministic traffic on a two-node fabric,
// then both codecs marshal their full state. A diff means the v1
// snapshot bytes changed — a version bump, not a silent edit.
func genDictSnap(w *bytes.Buffer, r *rng) {
	cfg := compress.DefaultDictConfig(2)
	mks := []struct {
		name string
		mk   func(node int) compress.Codec
	}{
		{"dicomp", func(node int) compress.Codec {
			c, err := compress.NewDIComp(node, cfg)
			if err != nil {
				panic(err)
			}
			return c
		}},
		{"divaxx5", func(node int) compress.Codec {
			c, err := compress.NewDIVaxx(node, cfg, 5)
			if err != nil {
				panic(err)
			}
			return c
		}},
		{"divaxx5w16", func(node int) compress.Codec {
			c, err := compress.NewDIVaxxWindowed(node, cfg, 5, 16, 2)
			if err != nil {
				panic(err)
			}
			return c
		}},
	}
	for _, m := range mks {
		fab := compress.NewFabric(2, m.mk)
		alpha := make([]value.Word, 5)
		for i := range alpha {
			alpha[i] = value.Word(r.uint32())
		}
		for i := 0; i < 48; i++ {
			blk := &value.Block{Words: make([]value.Word, 8), DType: value.Int32, Approximable: i%3 != 0}
			for j := range blk.Words {
				word := alpha[r.intn(len(alpha))]
				if r.intn(6) == 0 {
					word ^= 1 << uint(r.intn(8)) // near-miss of a hot pattern
				}
				blk.Words[j] = word
			}
			src := r.intn(2)
			dst := 1 - src
			enc := fab.Codec(src).Compress(dst, blk)
			_, notifs := fab.Codec(dst).Decompress(src, enc)
			fab.Deliver(notifs)
		}
		for node := 0; node < 2; node++ {
			s, ok := compress.As[compress.DictSnapshotter](fab.Codec(node))
			if !ok {
				panic("dict codec does not snapshot")
			}
			img, err := s.Marshal()
			if err != nil {
				panic(err)
			}
			fmt.Fprintf(w, "%s node=%d gen=%d len=%d image=%x\n",
				m.name, node, s.Generation(), len(img), img)
		}
	}
}

func genMasks(w *bytes.Buffer, r *rng) {
	specials := []value.Word{0x00000000, 0x80000000, 0x7F800000, 0xFF800000, 0x7FC00000, 0x00000001}
	for _, pct := range []int{0, 1, 5, 10, 25, 100} {
		a, err := approx.New(pct)
		if err != nil {
			panic(err)
		}
		for i := 0; i < 12; i++ {
			iw := value.Word(r.uint32()) >> uint(r.intn(28)) // mixed magnitudes
			if r.intn(2) == 0 {
				iw = value.Word(-int32(iw))
			}
			mask, _ := a.MaskWord(iw, value.Int32)
			fmt.Fprintf(w, "int pct=%d w=%08x mask=%08x\n", pct, iw, mask)

			var fw value.Word
			if i < 3 {
				fw = specials[r.intn(len(specials))]
			} else {
				// A normal float: random sign, finite exponent, mantissa.
				fw = value.Word(uint32(r.intn(2))<<31 | uint32(r.intn(254)+1)<<23 | r.uint32()&0x7FFFFF)
			}
			if m, ok := a.MaskWord(fw, value.Float32); ok {
				fmt.Fprintf(w, "float pct=%d w=%08x mask=%08x\n", pct, fw, m)
			} else {
				fmt.Fprintf(w, "float pct=%d w=%08x mask=bypass\n", pct, fw)
			}
		}
	}
}

func genFrames(w *bytes.Buffer, r *rng) {
	thresholds := []int{-1, 0, 5, 10, 25}
	for i := 0; i < 16; i++ {
		n := r.intn(8) + 1
		dt := value.Int32
		if r.intn(2) == 1 {
			dt = value.Float32
		}
		blk := value.NewBlock(n, dt, r.intn(2) == 1)
		for j := range blk.Words {
			blk.Words[j] = fpcWord(r)
		}
		req := serve.Request{
			Src: r.intn(4), Dst: r.intn(4),
			ThresholdPct: thresholds[r.intn(len(thresholds))],
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
		switch r.intn(3) {
		case 0:
			blk := value.NewBlock(r.intn(8)+1, value.Int32, false)
			for j := range blk.Words {
				blk.Words[j] = fpcWord(r)
			}
			res.Block = blk
			res.BitsIn = 32 * len(blk.Words)
			res.BitsOut = r.intn(res.BitsIn + 1)
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

// genMetrics pins the obs text exposition format: a registry with every
// family type, labels, suffixes, and value shapes, rendered through
// WriteText. The numbers are drawn into owner-side variables first and
// every family is a collector that reads them at scrape time — the one
// registration path production uses. A diff means scrape consumers
// would see different bytes for identical state.
func genMetrics(w *bytes.Buffer, r *rng) {
	reqs := r.intn(100000)
	var words, ratios []obs.Sample
	for _, kind := range []string{"approx", "exact", "raw"} {
		words = append(words, obs.Sample{LabelValues: []string{kind}, Value: float64(r.intn(5000))})
	}
	depth := r.intn(64)
	for _, scheme := range []string{"di", "fp"} {
		for _, thr := range []string{"0", "5", "10"} {
			ratios = append(ratios, obs.Sample{LabelValues: []string{scheme, thr},
				Value: 1 + float64(r.intn(1000))/512})
		}
	}
	var lat stats.LatencyHist
	for i := 0; i < 200; i++ {
		lat.Observe(time.Duration(r.intn(1 << uint(4+r.intn(16)))))
		r.next() // golden_metrics.txt was recorded with a third draw per observation
	}

	reg := obs.NewRegistry()
	reg.Collector("demo_requests_total", "requests served", obs.TypeCounter, nil,
		func() []obs.Sample { return []obs.Sample{{Value: float64(reqs)}} })
	reg.Collector("demo_words_total", "encoder word outcomes", obs.TypeCounter,
		[]string{"kind"}, func() []obs.Sample { return words })
	reg.GaugeFunc("demo_queue_depth", "live queue depth", func() float64 { return float64(depth) })
	reg.Collector("demo_ratio", "compression ratio", obs.TypeGauge,
		[]string{"scheme", "threshold"}, func() []obs.Sample { return ratios })
	reg.Collector("demo_latency_ns", "request latency", obs.TypeHistogram, nil,
		func() []obs.Sample { return obs.HistogramSamples(nil, lat.Snapshot()) })
	reg.GaugeFunc("demo_uptime_seconds", "seconds since boot", func() float64 { return 1234.5 })
	reg.Collector("demo_flits_total", "flits by direction", obs.TypeCounter,
		[]string{"dir"}, func() []obs.Sample {
			return []obs.Sample{
				{LabelValues: []string{"ejected"}, Value: 4093},
				{LabelValues: []string{"injected"}, Value: 4099},
			}
		})

	if err := reg.WriteText(w); err != nil {
		panic(err)
	}
}
