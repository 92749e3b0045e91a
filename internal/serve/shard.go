package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"approxnoc/internal/compress"
	"approxnoc/internal/obs"
	"approxnoc/internal/qos"
	"approxnoc/internal/stats"
	"approxnoc/internal/value"
)

// pool is one consistent view of a codec fabric: the fabric itself plus
// the per-node threshold bookkeeping that must change in lockstep with
// it. Every shard owns a private pool; the shard worker is its single
// writer, so no locking happens.
type pool struct {
	fabric    *compress.Fabric
	threshold []int // current encoder threshold per node
}

func newPool(cfg Config, factory func(node int) compress.Codec) *pool {
	p := &pool{
		fabric:    compress.NewFabric(cfg.Nodes, factory),
		threshold: make([]int, cfg.Nodes),
	}
	for i := range p.threshold {
		p.threshold[i] = cfg.ThresholdPct
	}
	return p
}

// transfer moves one request's block through the src/dst codec pair at
// the already-resolved effective threshold (see EffectiveThreshold),
// settling dictionary notifications, and returns the observed block plus
// payload accounting. The block is decoded into dst when dst is non-nil
// and into a fresh block otherwise. Only the pool's owning worker may
// call it.
func (p *pool) transfer(req Request, want int, dst *value.Block) Result {
	if want != p.threshold[req.Src] {
		// As looks through the Adaptive wrapper, so a wrapped FP-VAXX still
		// honors per-request and QoS thresholds.
		adj, ok := compress.As[compress.ThresholdAdjuster](p.fabric.Codec(req.Src))
		if !ok {
			return Result{Tag: req.Tag, Err: fmt.Errorf("%w: %v", ErrThreshold, p.fabric.Codec(req.Src).Scheme())}
		}
		if err := adj.SetThreshold(want); err != nil {
			return Result{Tag: req.Tag, Err: err}
		}
		p.threshold[req.Src] = want
	}
	// The codec-owned encoding is consumed right here (decode +
	// accounting) before the source codec can encode again.
	enc := p.fabric.Codec(req.Src).Compress(req.Dst, req.Block)
	if dst == nil {
		dst = value.NewBlock(enc.NumWords, enc.DType, enc.Approximable)
	}
	p.fabric.Deliver(p.fabric.Codec(req.Dst).DecompressInto(dst, req.Src, enc))
	return Result{
		Tag:     req.Tag,
		Block:   dst,
		BitsIn:  32 * len(req.Block.Words),
		BitsOut: enc.Bits,
	}
}

// pending is one queued request awaiting its shard worker. A server
// connection's request carries its slot, which receives the decoded block
// and the Result and is then sent back on the connection's results
// channel; an in-process request has no slot and gets a fresh block on
// reply (nil discards it).
type pending struct {
	req   Request
	slot  *slot
	reply chan<- Result
	enq   time.Time
}

// shard is one slice of the gateway: a bounded queue, a codec pool, and
// the counters describing what flowed through. Exactly one worker
// goroutine drains the queue.
type shard struct {
	id         int
	pool       *pool
	queue      chan pending
	ctl        chan func(*pool)
	defaultPct int
	maxBatch   int
	tracer     *obs.Tracer // nil when tracing is disabled
	epoch      time.Time   // event timestamps are nanoseconds since here

	// QoS hooks, both nil when the gateway runs without a QoS config.
	// qosCtl supplies the (possibly raised) default threshold; ledger
	// charges budgeted tenants at execution time — not at Submit — so
	// overload rejections are free and a request is charged exactly once
	// no matter how many times a client retried its submission.
	qosCtl *qos.Controller
	ledger *qos.Ledger

	// Counters are atomics: accepted/rejected are bumped by submitting
	// goroutines, the rest by the worker, and all are read concurrently
	// by Metrics.
	accepted  atomic.Uint64
	rejected  atomic.Uint64
	shed      atomic.Uint64 // approximatable requests refused early by QoS
	budgetRej atomic.Uint64 // requests refused with ErrBudgetExhausted
	processed atomic.Uint64
	batches   atomic.Uint64
	coalesced atomic.Uint64
	dropped   atomic.Uint64
	bitsIn    atomic.Uint64
	bitsOut   atomic.Uint64
	bytesIn   atomic.Uint64
	bytesOut  atomic.Uint64
	lat       stats.LatencyHist
}

func newShard(id int, p *pool, cfg Config, qosCtl *qos.Controller, ledger *qos.Ledger) *shard {
	return &shard{
		id:         id,
		pool:       p,
		queue:      make(chan pending, cfg.QueueDepth),
		ctl:        make(chan func(*pool)),
		defaultPct: cfg.ThresholdPct,
		maxBatch:   cfg.MaxBatch,
		tracer:     cfg.Tracer,
		epoch:      time.Now(),
		qosCtl:     qosCtl,
		ledger:     ledger,
	}
}

// run is the shard worker loop: block for one request, opportunistically
// coalesce up to maxBatch-1 more already-queued ones into the same
// dispatch, process, repeat. Returns when the queue is closed and
// drained.
func (s *shard) run(wg *sync.WaitGroup) {
	defer wg.Done()
	batch := make([]pending, 0, s.maxBatch)
	for {
		var p pending
		var ok bool
		select {
		case p, ok = <-s.queue:
			if !ok {
				return
			}
		case fn := <-s.ctl:
			fn(s.pool)
			continue
		}
		batch = append(batch[:0], p)
	fill:
		for len(batch) < s.maxBatch {
			select {
			case p, ok := <-s.queue:
				if !ok {
					s.process(batch)
					return
				}
				batch = append(batch, p)
			default:
				break fill
			}
		}
		s.process(batch)
	}
}

// trace records one gateway event stamped with nanoseconds since the
// shard started; a nil tracer makes it a single-branch no-op.
func (s *shard) trace(kind obs.EventKind, a, b uint64) {
	if s.tracer == nil {
		return
	}
	s.tracer.Record(obs.Event{
		Cycle: uint64(time.Since(s.epoch)),
		Kind:  kind,
		Node:  int32(s.id),
		A:     a,
		B:     b,
	})
}

// serveOne resolves one request's effective threshold against the QoS
// controller (when present), charges the tenant's error budget before
// touching the codecs, and refunds the charge if the transfer itself
// fails — so spent error mass sums to exactly the mass of blocks that
// were actually approximated.
func (s *shard) serveOne(req Request, dst *value.Block) Result {
	pct := s.defaultPct
	if s.qosCtl != nil {
		pct = s.qosCtl.Threshold()
	}
	eff := EffectiveThreshold(req.ThresholdPct, pct)
	var charged float64
	if s.ledger != nil && req.Tenant != "" && eff > 0 {
		cost := qos.Cost(eff, len(req.Block.Words))
		if err := s.ledger.Spend(req.Tenant, cost); err != nil {
			s.budgetRej.Add(1)
			s.trace(obs.EvOverload, req.Tag, uint64(eff))
			return Result{Tag: req.Tag, Err: err}
		}
		charged = cost
	}
	res := s.pool.transfer(req, eff, dst)
	if res.Err != nil && charged > 0 {
		s.ledger.Refund(req.Tenant, charged)
	}
	return res
}

// process services one coalesced batch.
func (s *shard) process(batch []pending) {
	s.batches.Add(1)
	if len(batch) > 1 {
		s.coalesced.Add(uint64(len(batch)))
	}
	s.trace(obs.EvBatch, uint64(len(batch)), 0)
	for _, p := range batch {
		var dst *value.Block
		if p.slot != nil {
			dst = &p.slot.out
		}
		res := s.serveOne(p.req, dst)
		if res.Err == nil {
			s.bitsIn.Add(uint64(res.BitsIn))
			s.bitsOut.Add(uint64(res.BitsOut))
			s.bytesIn.Add(uint64(p.req.Block.Bytes()))
			s.bytesOut.Add(uint64((res.BitsOut + 7) / 8))
			s.trace(obs.EvCompress, p.req.Tag, uint64(res.BitsOut))
			s.trace(obs.EvDecompress, p.req.Tag, uint64(len(res.Block.Words)))
		}
		s.processed.Add(1)
		s.lat.Observe(time.Since(p.enq))
		switch {
		case p.slot != nil:
			// The results channel holds every slot of its connection,
			// so this send never blocks.
			p.slot.res = res
			p.slot.results <- p.slot
		case p.reply != nil:
			// Reply channels must have a free slot per outstanding
			// request (Do uses a dedicated 1-buffered channel); a full
			// one is dropped rather than stalling the whole shard.
			select {
			case p.reply <- res:
			default:
				s.dropped.Add(1)
			}
		}
	}
}

// metrics snapshots the shard's counters.
func (s *shard) metrics() ShardMetrics {
	snap := s.lat.Snapshot()
	return ShardMetrics{
		Shard:          s.id,
		Accepted:       s.accepted.Load(),
		Rejected:       s.rejected.Load(),
		Shed:           s.shed.Load(),
		BudgetRejected: s.budgetRej.Load(),
		Processed:      s.processed.Load(),
		Batches:        s.batches.Load(),
		Coalesced:      s.coalesced.Load(),
		DroppedReplies: s.dropped.Load(),
		BitsIn:         s.bitsIn.Load(),
		BitsOut:        s.bitsOut.Load(),
		BytesIn:        s.bytesIn.Load(),
		BytesOut:       s.bytesOut.Load(),
		P50:            snap.Quantile(0.50),
		P99:            snap.Quantile(0.99),
		latency:        snap,
	}
}
