package main

import (
	"time"

	"approxnoc/internal/compress"
	"approxnoc/internal/oracle"
)

var (
	fpSchemes = []compress.Scheme{compress.FPComp, compress.FPVaxx}
	diSchemes = []compress.Scheme{compress.DIComp, compress.DIVaxx}
)

// warmPasses is how many times the accounting pass of a codec workload
// replays the pool from fresh fabrics. Four passes (32 Ki transfers per
// fabric) take the dictionary schemes through promotion, eviction and
// invalidation on every tile pair; the static-pattern schemes hold no
// state, so the count only matters to codec_di.
const warmPasses = 4

// sweepRecords is how many records one latency sample of a timed codec
// repetition covers: the sweep of 128 records across every fabric (256
// Transfer calls, 0.2 to 0.4 ms) between two reads of the clock, which
// gives 1 400 samples or more per repetition. A single Transfer takes
// under a microsecond, and its 99th percentile sat on a knee of the tail
// (p98 1.7 us, p99 2.0 us, p99.5 4 us) that box noise moved across p99
// from one run to the next; over a sweep the same noise averages out and
// the tail is smooth (p98 to p99.5 within 35 %).
const sweepRecords = 128

// codecRig is the set-up of a codec workload: one 32-node fabric per
// scheme, and the records that cross them.
type codecRig struct {
	fabs        []*compress.Fabric
	recs        []record
	dict        bool // the schemes keep dictionaries
	nextBlockNs float64
}

func newCodecRig(seed uint64, schemes []compress.Scheme, perModel int) (*codecRig, error) {
	dict, phases := schemes[0] == compress.DIComp, statelessPhases
	if dict {
		phases = dictionaryPhases
	}
	blocks, nbNs, err := genBlocks(seed, perModel, phases)
	if err != nil {
		return nil, err
	}
	fabs, err := newFabrics(schemes)
	if err != nil {
		return nil, err
	}
	return &codecRig{fabs: fabs, recs: genRecords(seed, blocks, false), dict: dict, nextBlockNs: nbNs}, nil
}

// codecRep is one timed repetition: a single goroutine calling
// Fabric.Transfer on each fabric in turn for every record, round-robin
// from record from, until dur has elapsed. lat holds one sample per sweep
// of sweepRecords records.
type codecRep struct {
	transfers      int64
	elapsed        time.Duration
	lat            []int32
	mallocs, bytes float64
	gcs            int
	next           int
}

func (r *codecRig) timed(from int, dur time.Duration, fails *failLog) codecRep {
	rep := codecRep{lat: make([]int32, 0, int(dur.Seconds()*2e4)+1024)}
	mem := markMem()
	clk := newClock()
	deadline := int64(dur)
	i := from
	now := clk.now()
	for now < deadline {
		// One clock read per sweep stamps it and ends the window.
		for k := 0; k < sweepRecords; k++ {
			rec := &r.recs[i]
			for _, fab := range r.fabs {
				rep.transfers++
				out := fab.Transfer(rec.src, rec.dst, rec.blk)
				if rep.transfers%checkStride == 0 {
					scheme := fab.Codec(rec.src).Scheme()
					if err := checkDelivered(rec.blk, out, oracle.EffectiveThreshold(scheme, rec.blk, defaultThrPct), scheme, -1); err != nil {
						fails.addf("record %d on %v: %v", i, scheme, err)
					}
				}
			}
			if i++; i == len(r.recs) {
				i = 0
			}
		}
		end := clk.now()
		if len(rep.lat) < cap(rep.lat) {
			rep.lat = append(rep.lat, clampNs(end-now))
		}
		now = end
	}
	rep.elapsed = time.Duration(now)
	rep.mallocs, rep.bytes, rep.gcs = mem.since()
	rep.next = i
	return rep
}

// runCodec is one run of a codec workload; its structure follows runWire.
func runCodec(o *runOpts, name string, schemes []compress.Scheme) (*result, error) {
	fails := &failLog{}
	var rig *codecRig
	setups, err := timeSetups(o.setupReps(), func() (err error) {
		rig, err = newCodecRig(o.seed, schemes, o.perModel())
		return err
	})
	if err != nil {
		return nil, err
	}

	// Accounting pass: fixed work from fresh fabrics, so the dictionary
	// state it ends in — and everything it measured — repeats for a seed.
	var acct modelSums
	for pass := 0; pass < warmPasses; pass++ {
		for i := range rig.recs {
			for _, fab := range rig.fabs {
				encodeDecode(fab, i, &rig.recs[i], clock{}, nil, &acct, fails)
			}
		}
	}
	attempted := int64(warmPasses * len(rig.recs) * len(rig.fabs))
	checkGolden(o, name, golden{Metrics: acct.metrics()}, fails)
	warm := rig.timed(0, o.phaseDur()/2, fails) // untimed: lets the heap settle
	attempted += warm.transfers

	var metrics map[string]float64
	if o.traced {
		if metrics, err = rig.traced(o, name, warm.next, &attempted, fails); err != nil {
			return nil, err
		}
	} else {
		var reps repSeries
		at := warm.next
		for rep := 0; rep < o.reps(); rep++ {
			t := rig.timed(at, o.repDur(), fails)
			at = t.next
			reps.add(t.transfers, t.elapsed, t.lat, t.mallocs, t.bytes)
			attempted += t.transfers
			o.logf("%s rep %d: %d transfers in %.3fs (%d sweep samples), %d gc cycles",
				name, rep, t.transfers, t.elapsed.Seconds(), len(t.lat), t.gcs)
		}
		o.logf("%s %s", name, reps.spreads())
		metrics = reps.metrics(setups, &acct)
	}
	return &result{attempted: attempted, failed: fails.n, metrics: metrics, failures: fails.msgs}, nil
}

// traced is the traced run of a codec workload: an untraced repetition
// for reference, the same work with a span around every encode and
// decode, a span around every Transfer, then the mask and match layers.
func (r *codecRig) traced(o *runOpts, name string, from int, attempted *int64, fails *failLog) (map[string]float64, error) {
	phase := o.phaseDur()
	memStart := markMem()
	tr := newTracer()

	plain := r.timed(from, phase, fails)
	spans, spansTook, at := encodeDecodeFor(r.fabs, r.recs, plain.next, phase, tr, fails)
	transferLayer(r.fabs, r.recs, at, phase, tr, fails)
	encAllocs, decAllocs := codecAllocs(r.fabs, r.recs, at, min(1024, len(r.recs)))
	*attempted += plain.transfers + spans.blocks

	okShare := approxLayer(r.recs, phase, tr)
	var hitShare float64
	var evictions int64
	if r.dict {
		hitShare, evictions = tcamLayer(r.recs, phase, tr)
	}

	var stats compress.OpStats
	for _, fab := range r.fabs {
		stats.Add(fab.Stats())
	}
	plainTPS, spansTPS := float64(plain.transfers)/plain.elapsed.Seconds(), float64(spans.blocks)/spansTook.Seconds()
	_, _, gcs := memStart.since()
	m := layerMetrics(o.spec, tr)
	m["compress.encode_allocs"] = encAllocs
	m["compress.decode_allocs"] = decAllocs
	codecCounters(m, stats)
	m["approx.mask_ok_share"] = okShare
	m["tcam.hit_share"] = hitShare
	m["tcam.evictions"] = float64(evictions)
	m["workload.nextblock_ns"] = r.nextBlockNs
	m["runtime.gc_cycles"] = float64(gcs)
	m["runtime.heap_sys_mb"] = heapSysMB()
	m["trace.overhead_share"] = 1 - spansTPS/plainTPS
	o.logf("%s traced: %.0f transfers/s untraced, %.0f with encode and decode spanned", name, plainTPS, spansTPS)
	if err := tr.write(o.spec.tracePath(name), name, o.seed); err != nil {
		return nil, err
	}
	return m, nil
}
