package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"

	"approxnoc/internal/compress"
	"approxnoc/internal/qos"
	"approxnoc/internal/serve"
	"approxnoc/internal/value"
)

// wireScheme is the mechanism every wire workload serves: FP-VAXX is the
// one scheme whose threshold the gateway can switch per request, which
// wire_mixed_qos needs, and it is stateless, so what a record delivers
// does not depend on how the two connections interleave.
const wireScheme = compress.FPVaxx

// wireShape is the closed-loop load of one wire workload: conns client
// goroutines, one TCP connection each, depth requests in flight per
// connection. Depth 1 uses Client.Do, deeper pipelines Client.Go.
type wireShape struct {
	conns, depth int
	mixed        bool
}

// wireRig is a gateway served on host loopback with its dialled clients
// and the pre-generated records they replay.
type wireRig struct {
	shape    wireShape
	gw       *serve.Gateway
	srv      *serve.Server
	clients  []*serve.Client
	serveErr chan error
	recs     []record

	nextBlockNs float64

	// want is what the accounting pass saw each record deliver; later
	// sampled deliveries of the same record must be bit-identical.
	wantBits []int
	wantOut  []*value.Block
	// acctSpent is the error mass the ledger charged for the accounting
	// pass: one pass over the pool, so exact for a seed.
	acctSpent float64
}

func gatewayConfig(mixed bool) serve.Config {
	cfg := serve.DefaultConfig(wireScheme, defaultThrPct)
	cfg.Shards = 2
	if mixed {
		// Budgets far beyond what any run can spend, and a pinned
		// controller: the ledger and the v2 frames are exercised, refusals
		// and threshold moves are not.
		big := qos.BudgetConfig{Capacity: 1e15}
		cfg.QoS = &qos.Config{
			Controller: qos.ControllerConfig{MaxPct: -1},
			Budgets:    map[string]qos.BudgetConfig{tenantExact: big, tenantFive: big, tenantDefault: big},
			Interval:   50 * time.Millisecond,
		}
	}
	return cfg
}

// newWireRig is the set-up a wire workload pays: block generation,
// gateway, server on an ephemeral loopback port, and the dialled clients.
func newWireRig(seed uint64, shape wireShape, perModel int) (*wireRig, error) {
	blocks, nbNs, err := genBlocks(seed, perModel, statelessPhases)
	if err != nil {
		return nil, err
	}
	gw, err := serve.New(gatewayConfig(shape.mixed))
	if err != nil {
		return nil, err
	}
	r := &wireRig{shape: shape, gw: gw, srv: serve.NewServer(gw), serveErr: make(chan error, 1),
		recs: genRecords(seed, blocks, shape.mixed), nextBlockNs: nbNs}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close()
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	go func() { r.serveErr <- r.srv.Serve(ln) }()
	for c := 0; c < shape.conns; c++ {
		cl, err := serve.Dial(ln.Addr().String())
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("dial loopback gateway: %w", err)
		}
		// Ready means served: the first answer proves the accept loop runs,
		// which a successful dial on a bound listener does not.
		if _, err := cl.Do(r.recs[c].request(0)); err != nil {
			r.Close()
			return nil, fmt.Errorf("first request on loopback gateway: %w", err)
		}
		r.clients = append(r.clients, cl)
	}
	return r, nil
}

func (r *wireRig) Close() error {
	for _, cl := range r.clients {
		cl.Close()
	}
	err := r.srv.Close()
	if serr := <-r.serveErr; err == nil {
		err = serr
	}
	if gerr := r.gw.Close(); err == nil {
		err = gerr
	}
	return err
}

// wireTotals is what one pass of the closed loop observed from the client
// side. The sums are only kept by an accounting pass.
type wireTotals struct {
	records, retries int64
	elapsed          time.Duration
	lat              []int32 // send → completion, ns, unsorted
	mallocs, bytes   float64 // whole process, over the pass
	gcs              int
	sums             modelSums
}

func (t *wireTotals) perSec() float64 { return float64(t.records) / t.elapsed.Seconds() }

// driveOpts selects one pass of the closed loop. Exactly one of dur and
// passes is set: a timed pass replays the pool round-robin until dur has
// elapsed, an accounting pass sends every record exactly passes times.
type driveOpts struct {
	dur        time.Duration
	passes     int
	checkEvery int64 // check every n-th delivery per connection; 1 checks all
	account    bool  // keep sums and per-record expectations
	tr         *tracer
}

// drive runs the closed loop on every connection at once and merges what
// they saw. Connection c replays records c, c+conns, c+2·conns, …
func (r *wireRig) drive(o driveOpts, fails *failLog) wireTotals {
	if o.account {
		r.wantBits = make([]int, len(r.recs))
		r.wantOut = make([]*value.Block, len(r.recs))
	}
	parts := make([]wireTotals, len(r.clients))
	clk := newClock()
	if o.tr != nil {
		clk = o.tr.clock
	}
	// Sample buffers are sized before the window opens — room for 1.5 M
	// completions/s per connection, beyond which samples are dropped — so
	// the allocation metrics see the program, not the recorder.
	for c := range parts {
		room := int(o.dur.Seconds()*1.5e6) + 1024
		if o.passes > 0 {
			room = o.passes * len(r.recs)
		}
		parts[c].lat = make([]int32, 0, room)
	}
	var wg sync.WaitGroup
	runtime.GC()
	mem := markMem()
	start := time.Now()
	for c := range r.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf *spanBuf
			if o.tr != nil {
				buf = o.tr.buf()
			}
			r.driveConn(c, &parts[c], o, clk, buf, fails)
		}(c)
	}
	wg.Wait()
	total := wireTotals{elapsed: time.Since(start)}
	total.mallocs, total.bytes, total.gcs = mem.since()
	for _, p := range parts {
		total.records += p.records
		total.retries += p.retries
		total.lat = append(total.lat, p.lat...)
		total.sums.merge(p.sums)
	}
	return total
}

// driveConn is one client of the closed loop: it keeps depth requests in
// flight and sends the next one only when one completes.
func (r *wireRig) driveConn(c int, t *wireTotals, o driveOpts, clk clock, buf *spanBuf, fails *failLog) {
	cl, n, conns, depth := r.clients[c], len(r.recs), len(r.clients), r.shape.depth
	limit := int64(-1)
	if o.passes > 0 {
		limit = int64(o.passes) * int64((n-c+conns-1)/conns)
	}
	deadline := clk.now() + int64(o.dur)
	next := c // next record index to send
	var sent int64
	more := func(now int64) bool {
		if limit >= 0 {
			return sent < limit
		}
		return now < deadline
	}
	advance := func() int {
		i := next
		if next += conns; next >= n {
			next = c
		}
		sent++
		return i
	}
	// settle accounts one completed request; now is its completion stamp
	// and rtt its open round-trip span, if the pass is traced.
	settle := func(idx int, sendAt, now int64, rtt uint64, res serve.Result, err error) {
		rec := &r.recs[idx]
		t.records++
		if len(t.lat) < cap(t.lat) {
			t.lat = append(t.lat, clampNs(now-sendAt))
		}
		if buf != nil {
			buf.close(rtt, spClientRTT, sendAt, now)
		}
		if err != nil {
			fails.addf("record %d: %v", idx, err)
			return
		}
		if t.records%o.checkEvery != 0 {
			return
		}
		if err := checkDelivered(rec.blk, res.Block, rec.effective(wireScheme), wireScheme, res.BitsOut); err != nil {
			fails.addf("record %d: %v", idx, err)
		} else if o.account {
			r.wantBits[idx], r.wantOut[idx] = res.BitsOut, res.Block
			t.sums.add(rec.blk, res.Block, res.BitsOut)
		} else if r.wantOut != nil && (res.BitsOut != r.wantBits[idx] || !res.Block.Equal(r.wantOut[idx])) {
			fails.addf("record %d: delivery differs from the accounting pass (%d bits, was %d)", idx, res.BitsOut, r.wantBits[idx])
		}
	}

	if depth == 1 {
		for now := clk.now(); more(now); {
			idx := advance()
			sendAt := clk.now()
			var rtt uint64
			if buf != nil {
				rtt = buf.open(spClientRTT, sendAt, uint64(idx))
			}
			res, err := cl.Do(r.recs[idx].request(uint64(idx)))
			for errors.Is(err, serve.ErrOverloaded) {
				t.retries++
				runtime.Gosched()
				res, err = cl.Do(r.recs[idx].request(uint64(idx)))
			}
			now = clk.now()
			settle(idx, sendAt, now, rtt, res, err)
		}
		return
	}

	// The tag carries the record index and the in-flight slot, so a
	// completion finds its send stamp without a map.
	done := make(chan *serve.Call, depth)
	sendAt := make([]int64, depth)
	rtt := make([]uint64, depth) // open round-trip span per slot
	free := make([]int, depth)
	for s := range free {
		free[s] = s
	}
	issue := func(idx, slot int, stamp bool) {
		t0 := clk.now()
		if stamp {
			sendAt[slot] = t0
			if buf != nil {
				rtt[slot] = buf.open(spClientRTT, t0, uint64(idx))
			}
		}
		cl.Go(r.recs[idx].request(uint64(idx)<<8|uint64(slot)), done)
		if buf != nil {
			buf.add(spClientGo, t0, clk.now(), rtt[slot], uint64(idx), 1)
		}
	}
	complete := func(call *serve.Call) int64 {
		now := clk.now()
		idx, slot := int(call.Req.Tag>>8), int(call.Req.Tag&0xff)
		if errors.Is(call.Err, serve.ErrOverloaded) {
			// Backpressure, not an answer: reissue; the record completes,
			// and is timed, once it is served.
			t.retries++
			runtime.Gosched()
			issue(idx, slot, false)
			return now
		}
		free = append(free, slot)
		settle(idx, sendAt[slot], now, rtt[slot], call.Res, call.Err)
		return now
	}
	now := clk.now()
	for {
		for len(free) > 0 && more(now) {
			slot := free[len(free)-1]
			free = free[:len(free)-1]
			issue(advance(), slot, true)
		}
		if len(free) == depth {
			return
		}
		// Block for one completion, then take every other one already
		// there, so the refill above goes out as one coalesced write.
		now = complete(<-done)
		for drained := false; !drained; {
			select {
			case call := <-done:
				now = complete(call)
			default:
				drained = true
			}
		}
	}
}

// runWire is one run of a wire workload. Both modes set up, then send
// every record once with every delivery checked: that accounting pass
// fills pools and arenas and yields the results that must be exact for a
// seed. A timed run then reports the median of its repetitions; a traced
// run spends the same window on one traced repetition and on each layer
// of the chain in isolation.
func runWire(o *runOpts, name string, shape wireShape) (*result, error) {
	fails := &failLog{}
	var rig *wireRig
	setups, err := timeSetups(o.setupReps(), func() (err error) {
		if rig != nil {
			if err = rig.Close(); err != nil {
				return err
			}
		}
		rig, err = newWireRig(o.seed, shape, o.perModel())
		return err
	})
	if err != nil {
		return nil, err
	}
	defer rig.Close()

	acct := rig.drive(driveOpts{passes: 1, checkEvery: 1, account: true}, fails)
	attempted := acct.records
	if ledger := rig.gw.Ledger(); ledger != nil {
		for _, b := range ledger.Snapshot() {
			rig.acctSpent += b.Spent
		}
	}
	checkGolden(o, name, golden{Metrics: acct.sums.metrics()}, fails)
	// One pass over the pool is milliseconds; an untimed repetition lets
	// the heap, the arenas and the scheduler settle before anything counts.
	attempted += rig.drive(driveOpts{dur: o.phaseDur() / 2, checkEvery: checkStride}, fails).records

	var metrics map[string]float64
	if o.traced {
		if metrics, attempted, err = rig.traced(o, name, attempted, acct.retries, fails); err != nil {
			return nil, err
		}
	} else {
		var reps repSeries
		for rep := 0; rep < o.reps(); rep++ {
			t := rig.drive(driveOpts{dur: o.repDur(), checkEvery: checkStride}, fails)
			reps.add(t.records, t.elapsed, t.lat, t.mallocs, t.bytes)
			attempted += t.records
			o.logf("%s rep %d: %d records in %.3fs (%d latency samples), %d gc cycles, %d retries",
				name, rep, t.records, t.elapsed.Seconds(), len(t.lat), t.gcs, t.retries)
		}
		o.logf("%s %s", name, reps.spreads())
		metrics = reps.metrics(setups, &acct.sums)
	}
	if m := rig.gw.Metrics(); m.Rejected+m.Shed+m.BudgetRejected+m.DroppedReplies > 0 {
		fails.addf("gateway refused work at a load it must carry: %d rejected, %d shed, %d over budget, %d replies dropped",
			m.Rejected, m.Shed, m.BudgetRejected, m.DroppedReplies)
	}
	return &result{attempted: attempted, failed: fails.n, metrics: metrics, failures: fails.msgs}, nil
}

// traced is the traced run of a wire workload; see runWire.
func (r *wireRig) traced(o *runOpts, name string, attempted, retries int64, fails *failLog) (map[string]float64, int64, error) {
	phase := o.phaseDur()
	memStart := markMem()
	tr := newTracer()

	// Phase 1 and 2: the same closed loop untraced, then traced. Their
	// ratio is what the spans cost; the counters the layers export are
	// read around the traced one.
	plain := r.drive(driveOpts{dur: phase, checkEvery: checkStride}, fails)
	gw0, wire0 := r.gw.Metrics(), r.srv.WireStats()
	spans := r.drive(driveOpts{dur: phase, checkEvery: 1, tr: tr}, fails)
	gw1, wire1 := r.gw.Metrics(), r.srv.WireStats()
	attempted += plain.records + spans.records
	slices.Sort(spans.lat)

	// Phase 3: the chain of one request, stage by stage in this process,
	// on a second gateway configured like the served one.
	gw2, err := serve.New(gatewayConfig(r.shape.mixed))
	if err != nil {
		return nil, 0, err
	}
	defer gw2.Close()
	buf := tr.buf()
	chained := int64(0)
	for i, deadline := 0, tr.now()+int64(phase); tr.now() < deadline; i = (i + 1) % len(r.recs) {
		rec := &r.recs[i]
		tag := uint64(i)
		t0 := tr.now()
		reqBytes, err := serve.MarshalRequest(tag, rec.request(tag))
		t1 := tr.now()
		if err != nil {
			return nil, 0, err
		}
		_, req, err := serve.UnmarshalRequest(reqBytes)
		t2 := tr.now()
		if err != nil {
			return nil, 0, err
		}
		res, err := gw2.Do(req)
		t3 := tr.now()
		if err != nil {
			fails.addf("in-process record %d: %v", i, err)
			continue
		}
		respBytes, err := serve.MarshalResponse(res)
		t4 := tr.now()
		if err != nil {
			return nil, 0, err
		}
		back, err := serve.UnmarshalResponse(respBytes)
		t5 := tr.now()
		if err != nil {
			return nil, 0, err
		}
		parent := buf.add(spChain, t0, t5, 0, tag, 1)
		buf.add(spMarshalReq, t0, t1, parent, tag, 1)
		buf.add(spUnmarshalReq, t1, t2, parent, tag, 1)
		buf.add(spGatewayDo, t2, t3, parent, tag, 1)
		buf.add(spMarshalResp, t3, t4, parent, tag, 1)
		buf.add(spUnmarshalResp, t4, t5, parent, tag, 1)
		chained++
		if err := checkDelivered(rec.blk, back.Block, rec.effective(wireScheme), wireScheme, back.BitsOut); err != nil {
			fails.addf("in-process record %d: %v", i, err)
		} else if back.BitsOut != r.wantBits[i] || !back.Block.Equal(r.wantOut[i]) {
			fails.addf("in-process record %d: delivery differs from the served gateway's", i)
		}
	}
	attempted += chained

	// Phase 4: the codec pair alone, on a fabric like a shard's pool.
	fabs, err := newFabrics([]compress.Scheme{wireScheme})
	if err != nil {
		return nil, 0, err
	}
	iso, _, at := encodeDecodeFor(fabs, r.recs, 0, phase/2, tr, fails)
	transferLayer(fabs, r.recs, at, phase/2, tr, fails)
	encAllocs, decAllocs := codecAllocs(fabs, r.recs, 0, min(2048, len(r.recs)))
	attempted += iso.blocks

	// Phase 5: the nanosecond-scale layers.
	okShare := approxLayer(r.recs, phase/2, tr)
	if r.shape.mixed {
		if err := qosLayer(phase/2, tr); err != nil {
			return nil, 0, err
		}
	}

	stats := fabs[0].Stats()
	processed := float64(gw1.Processed - gw0.Processed)
	chainNs := tr.perCall(spMarshalReq) + tr.perCall(spUnmarshalReq) + tr.perCall(spGatewayDo) + tr.perCall(spMarshalResp) + tr.perCall(spUnmarshalResp)
	_, _, gcs := memStart.since()
	m := layerMetrics(o.spec, tr)
	m["serve.queue_handoff_ns"] = tr.perCall(spGatewayDo) - tr.perCall(spTransfer)
	m["serve.client_rtt_p50_us"] = quantileNs(spans.lat, 0.50) / 1e3
	m["serve.client_rtt_p999_us"] = quantileNs(spans.lat, 0.999) / 1e3
	m["serve.mean_batch"] = processed / float64(gw1.Batches-gw0.Batches)
	m["serve.coalesced_share"] = float64(gw1.Coalesced-gw0.Coalesced) / processed
	m["serve.frames_per_write"] = float64(wire1.WriteFrames-wire0.WriteFrames) / float64(wire1.WriteBatches-wire0.WriteBatches)
	m["serve.write_bytes_per_record"] = float64(wire1.WriteBytes-wire0.WriteBytes) / processed
	m["serve.read_frames"] = float64(wire1.ReadFrames - wire0.ReadFrames)
	m["serve.shard_p50_us"] = float64(gw1.P50) / 1e3
	m["serve.shard_p99_us"] = float64(gw1.P99) / 1e3
	m["serve.rejected"] = float64(gw1.Rejected)
	m["serve.shed"] = float64(gw1.Shed)
	m["serve.budget_rejected"] = float64(gw1.BudgetRejected)
	m["serve.retries"] = float64(retries + plain.retries + spans.retries)
	m["compress.encode_allocs"] = encAllocs
	m["compress.decode_allocs"] = decAllocs
	codecCounters(m, stats)
	m["approx.mask_ok_share"] = okShare
	if r.shape.mixed {
		m["qos.charged_mass"] = r.acctSpent
		m["qos.controller_ticks"] = float64(r.gw.QoSController().Ticks())
	}
	m["workload.nextblock_ns"] = r.nextBlockNs
	m["runtime.gc_cycles"] = float64(gcs)
	m["runtime.heap_sys_mb"] = heapSysMB()
	m["trace.overhead_share"] = 1 - spans.perSec()/plain.perSec()
	m["budget.coverage_share"] = chainNs / (1e9 / plain.perSec())
	o.logf("%s traced: %.0f records/s untraced, %.0f traced; chain %.0f ns/record in isolation vs %.0f ns/record end to end",
		name, plain.perSec(), spans.perSec(), chainNs, 1e9/plain.perSec())
	if err := tr.write(o.spec.tracePath(name), name, o.seed); err != nil {
		return nil, 0, fmt.Errorf("write trace: %w", err)
	}
	return m, attempted, nil
}
