package main

import (
	"runtime"
	"time"

	"approxnoc/internal/approx"
	"approxnoc/internal/compress"
	"approxnoc/internal/oracle"
	"approxnoc/internal/qos"
	"approxnoc/internal/tcam"
	"approxnoc/internal/value"
)

// The functions here time one layer's public calls in isolation, on the
// workload's own pre-generated records, for the traced repetition. Calls
// of a microsecond or more get a span each; the nanosecond-scale ones
// (mask, match, ledger) are timed in batches so the clock reads do not
// swamp them.

// microBatch is how many calls one span of a batched layer covers.
const microBatch = 1024

// sink keeps the results of timed calls alive so the compiler cannot
// drop the calls.
var sink uint64

func newFabric(scheme compress.Scheme) (*compress.Fabric, error) {
	factory, err := compress.FactoryFor(scheme, fabricNodes, defaultThrPct)
	if err != nil {
		return nil, err
	}
	return compress.NewFabric(fabricNodes, factory), nil
}

func newFabrics(schemes []compress.Scheme) ([]*compress.Fabric, error) {
	fabs := make([]*compress.Fabric, len(schemes))
	for i, s := range schemes {
		f, err := newFabric(s)
		if err != nil {
			return nil, err
		}
		fabs[i] = f
	}
	return fabs, nil
}

// encodeDecode moves rec across fab with the three calls Fabric.Transfer
// makes, so the encoding is visible: it checks the round trip against
// internal/oracle and, with buf set, records an encode and a decode span.
func encodeDecode(fab *compress.Fabric, idx int, rec *record, clk clock, buf *spanBuf, sums *modelSums, fails *failLog) {
	src, dst := fab.Codec(rec.src), fab.Codec(rec.dst)
	t0 := clk.now()
	enc := compress.CompressTransient(src, rec.dst, rec.blk)
	t1 := clk.now()
	out, notifs := dst.Decompress(rec.src, enc)
	t2 := clk.now()
	fab.Deliver(notifs)
	if buf != nil {
		buf.add(spEncode, t0, t1, 0, uint64(idx), 1)
		buf.add(spDecode, t1, t2, 0, uint64(idx), 1)
	}
	if err := oracle.CheckBlock(rec.blk, enc, out, defaultThrPct); err != nil {
		fails.addf("record %d on %v: %v", idx, src.Scheme(), err)
		return
	}
	sums.add(rec.blk, out, enc.Bits)
}

// encodeDecodeFor replays the pool round-robin over every fabric until
// dur has elapsed, starting at record from; it returns what it moved, how
// long it took and where it stopped.
func encodeDecodeFor(fabs []*compress.Fabric, recs []record, from int, dur time.Duration, tr *tracer, fails *failLog) (modelSums, time.Duration, int) {
	var t modelSums
	buf := tr.buf()
	start := time.Now()
	deadline := tr.now() + int64(dur)
	i := from
	for tr.now() < deadline {
		for _, fab := range fabs {
			encodeDecode(fab, i, &recs[i], tr.clock, buf, &t, fails)
		}
		if i++; i == len(recs) {
			i = 0
		}
	}
	return t, time.Since(start), i
}

// transferLayer spans every Fabric.Transfer for dur.
func transferLayer(fabs []*compress.Fabric, recs []record, from int, dur time.Duration, tr *tracer, fails *failLog) {
	buf := tr.buf()
	deadline := tr.now() + int64(dur)
	i := from
	for tr.now() < deadline {
		for _, fab := range fabs {
			rec := &recs[i]
			t0 := tr.now()
			out := fab.Transfer(rec.src, rec.dst, rec.blk)
			buf.add(spTransfer, t0, tr.now(), 0, uint64(i), 1)
			scheme := fab.Codec(rec.src).Scheme()
			if err := checkDelivered(rec.blk, out, oracle.EffectiveThreshold(scheme, rec.blk, defaultThrPct), scheme, -1); err != nil {
				fails.addf("record %d on %v: %v", i, scheme, err)
			}
		}
		if i++; i == len(recs) {
			i = 0
		}
	}
}

// codecAllocs counts heap allocations per CompressTransient and per
// Decompress call over n records. It reads the allocator counters around
// every call, which is slow, so it is a sample outside any timed span;
// nothing else may run meanwhile.
func codecAllocs(fabs []*compress.Fabric, recs []record, from, n int) (perEncode, perDecode float64) {
	var ms runtime.MemStats
	mallocs := func() uint64 { runtime.ReadMemStats(&ms); return ms.Mallocs }
	var enc, dec, calls uint64
	for k := 0; k < n; k++ {
		rec := &recs[(from+k)%len(recs)]
		for _, fab := range fabs {
			m0 := mallocs()
			e := compress.CompressTransient(fab.Codec(rec.src), rec.dst, rec.blk)
			m1 := mallocs()
			_, notifs := fab.Codec(rec.dst).Decompress(rec.src, e)
			m2 := mallocs()
			fab.Deliver(notifs)
			enc, dec, calls = enc+m1-m0, dec+m2-m1, calls+1
		}
	}
	if calls == 0 {
		return 0, 0
	}
	return float64(enc) / float64(calls), float64(dec) / float64(calls)
}

// wordSets splits the records' words by data type, approximable blocks
// only: the words the AVCL and the match tables see.
func wordSets(recs []record) (all []value.Word, dts []value.DataType, ints, floats []value.Word) {
	for i := range recs {
		b := recs[i].blk
		if !b.Approximable {
			continue
		}
		for _, w := range b.Words {
			all = append(all, w)
			dts = append(dts, b.DType)
			if b.DType == value.Float32 {
				floats = append(floats, w)
			} else {
				ints = append(ints, w)
			}
		}
	}
	return all, dts, ints, floats
}

// approxLayer times AVCL.MaskWord over the workload's approximable words
// — in block order with each block's type, integer words only, float
// words only — a third of dur each, and returns the share of the first
// set's calls that produced a usable don't-care mask.
func approxLayer(recs []record, dur time.Duration, tr *tracer) (okShare float64) {
	all, dts, ints, floats := wordSets(recs)
	a := approx.MustNew(defaultThrPct)
	buf := tr.buf()
	var calls, usable int64
	// run masks words in batches; dts gives each word's type, or is nil
	// when every word is of type dt.
	run := func(name spanName, words []value.Word, dts []value.DataType, dt value.DataType) {
		if len(words) == 0 {
			return
		}
		deadline := tr.now() + int64(dur)/3
		for i := 0; tr.now() < deadline; {
			n := min(microBatch, len(words)-i)
			hits := int64(0)
			t0 := tr.now()
			for k := i; k < i+n; k++ {
				if dts != nil {
					dt = dts[k]
				}
				mask, ok := a.MaskWord(words[k], dt)
				if ok && mask != 0 {
					hits++
				}
			}
			buf.add(name, t0, tr.now(), 0, 0, n)
			if name == spMaskWord {
				calls, usable = calls+int64(n), usable+hits
			}
			if i += n; i == len(words) {
				i = 0
			}
		}
	}
	run(spMaskWord, all, dts, 0)
	run(spMaskInt, ints, nil, value.Int32)
	run(spMaskFloat, floats, nil, value.Float32)
	if calls == 0 {
		return 0
	}
	return float64(usable) / float64(calls)
}

// tcamLayer feeds the workload's approximable words to a default-size
// (8-entry) PMT pair the way a DI-VAXX encoder does — ternary search,
// then install the word's masked pattern on a miss; exact lookup, then
// install on a miss — timing searches, lookups and installs in batches.
// Hit share and evictions are those of the first pass over the words, a
// fixed amount of work, so they repeat for a seed; the timing goes on
// round-robin until dur has elapsed.
func tcamLayer(recs []record, dur time.Duration, tr *tracer) (hitShare float64, evictions int64) {
	all, dts, _, _ := wordSets(recs)
	if len(all) == 0 {
		return 0, 0
	}
	entries := compress.DefaultDictConfig(fabricNodes).Entries
	tc, cam := tcam.NewTCAM(entries), tcam.NewCAM(entries)
	a := approx.MustNew(defaultThrPct)
	masks := make([]uint32, len(all))
	for k, w := range all {
		masks[k], _ = a.MaskWord(w, dts[k])
	}
	buf := tr.buf()
	missed, camMissed := make([]int, 0, microBatch), make([]int, 0, microBatch)
	var evicted int64
	firstPass := true
	snapshot := func() {
		st, cs := tc.Stats(), cam.Stats()
		hitShare, evictions = float64(st.Hits+cs.Hits)/float64(st.Searches+cs.Searches), evicted
		firstPass = false
	}
	deadline := tr.now() + int64(dur)
	for i := 0; tr.now() < deadline; {
		n := min(microBatch, len(all)-i)
		missed, camMissed = missed[:0], camMissed[:0]
		t0 := tr.now()
		for k := i; k < i+n; k++ {
			idx, ok := tc.Search(all[k])
			sink += uint64(idx)
			if !ok {
				missed = append(missed, k)
			}
		}
		t1 := tr.now()
		for _, k := range missed {
			if _, _, ev := tc.Insert(tcam.TEntry{Value: all[k] &^ masks[k], Mask: masks[k]}); ev {
				evicted++
			}
		}
		t2 := tr.now()
		for k := i; k < i+n; k++ {
			idx, ok := cam.Lookup(all[k])
			sink += uint64(idx)
			if !ok {
				camMissed = append(camMissed, k)
			}
		}
		t3 := tr.now()
		buf.add(spTCAMSearch, t0, t1, 0, 0, n)
		buf.add(spTCAMInsert, t1, t2, 0, 0, len(missed))
		buf.add(spCAMLookup, t2, t3, 0, 0, n)
		for _, k := range camMissed {
			if _, _, ev := cam.Insert(all[k]); ev {
				evicted++
			}
		}
		if i += n; i == len(all) {
			i = 0
			if firstPass {
				snapshot()
			}
		}
	}
	if firstPass {
		snapshot() // the window closed inside the first pass
	}
	return hitShare, evictions
}

// qosLayer times Ledger.Spend + Refund pairs on a ledger shaped like the
// mixed workload's.
func qosLayer(dur time.Duration, tr *tracer) error {
	ledger, err := qos.NewLedger(gatewayConfig(true).QoS.Budgets, nil)
	if err != nil {
		return err
	}
	buf := tr.buf()
	cost := qos.Cost(5, value.WordsPerBlock)
	for deadline := tr.now() + int64(dur); tr.now() < deadline; {
		t0 := tr.now()
		for k := 0; k < microBatch; k++ {
			if err := ledger.Spend(tenantFive, cost); err != nil {
				return err
			}
			ledger.Refund(tenantFive, cost)
		}
		buf.add(spQoSSpend, t0, tr.now(), 0, 0, microBatch)
	}
	return nil
}

// layerMetrics starts a traced run's metric set: every declared
// per-layer name at 0 — a layer the workload never enters reports 0 —
// and the per-call times of every layer the tracer saw.
func layerMetrics(spec *benchSpec, tr *tracer) map[string]float64 {
	m := make(map[string]float64, len(spec.PerLayer))
	for _, d := range spec.PerLayer {
		m[d.Name] = 0
	}
	for name, sp := range map[string]spanName{
		"serve.marshal_request_ns":    spMarshalReq,
		"serve.unmarshal_request_ns":  spUnmarshalReq,
		"serve.marshal_response_ns":   spMarshalResp,
		"serve.unmarshal_response_ns": spUnmarshalResp,
		"serve.gateway_do_ns":         spGatewayDo,
		"serve.client_go_ns":          spClientGo,
		"compress.encode_ns":          spEncode,
		"compress.decode_ns":          spDecode,
		"compress.transfer_ns":        spTransfer,
		"approx.maskword_ns":          spMaskWord,
		"approx.maskint_ns":           spMaskInt,
		"approx.maskfloat_ns":         spMaskFloat,
		"tcam.search_ns":              spTCAMSearch,
		"tcam.cam_lookup_ns":          spCAMLookup,
		"tcam.insert_ns":              spTCAMInsert,
		"qos.spend_ns":                spQoSSpend,
		"traffic.tick_ns":             spTick,
		"noc.senddata_ns":             spSendData,
		"workload.nextblock_ns":       spNextBlock,
	} {
		m[name] = tr.perCall(sp)
	}
	return m
}

// codecCounters fills the compress.* ratios from the counters the codecs
// export.
func codecCounters(m map[string]float64, s compress.OpStats) {
	if s.BlocksIn > 0 {
		m["compress.notif_per_block"] = float64(s.NotificationsSent) / float64(s.BlocksIn)
	}
	m["compress.ratio"] = s.CompressionRatio()
	m["compress.encoded_word_share"] = s.EncodedWordFraction()
	m["compress.approx_word_share"] = s.ApproxWordFraction()
	m["compress.data_quality"] = s.DataQuality()
}

func heapSysMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapSys) / (1 << 20)
}
