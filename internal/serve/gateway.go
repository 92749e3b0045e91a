package serve

import (
	"fmt"
	"sync"
	"time"

	"approxnoc/internal/compress"
	"approxnoc/internal/obs"
	"approxnoc/internal/qos"
)

// Gateway is the concurrent approximation/compression service. It owns
// Config.Shards codec pools, each drained by one worker goroutine, and
// routes every request to the shard keyed by hash(src, dst). Gateway is
// safe for concurrent use by any number of goroutines.
type Gateway struct {
	cfg    Config
	shards []*shard
	wg     sync.WaitGroup
	done   chan struct{} // closed by Close once every worker exited

	// QoS state, zero/nil when Config.QoS is nil. shedAt is the queue
	// length at or beyond which approximatable submissions are refused
	// early (0 disables).
	qosCtl      *qos.Controller
	ledger      *qos.Ledger
	shedAt      int
	tenants     map[string]string // budgeted tenant names, interned by the wire parse
	samplerStop chan struct{}
	samplerWg   sync.WaitGroup

	// mu orders Submit against Close: submitters hold it shared while
	// sending into shard queues, Close holds it exclusively while
	// closing them, so no send can race a close.
	mu     sync.RWMutex
	closed bool
}

// New builds and starts a gateway; callers must Close it to stop the
// shard workers.
func New(cfg Config) (*Gateway, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	factory, err := compress.FactoryFor(cfg.Scheme, cfg.Nodes, cfg.ThresholdPct)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if cfg.Adaptive {
		factory = compress.AdaptiveFactory(factory)
	}
	g := &Gateway{cfg: cfg, shards: make([]*shard, cfg.Shards), done: make(chan struct{})}
	if q := cfg.QoS; q != nil {
		ctlCfg := q.Controller
		if ctlCfg.BaselinePct == 0 {
			ctlCfg.BaselinePct = cfg.ThresholdPct
		}
		g.qosCtl, err = qos.NewController(ctlCfg)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		if c := g.qosCtl.Config(); c.MaxPct > c.BaselinePct {
			if _, ok := compress.As[compress.ThresholdAdjuster](factory(0)); !ok {
				return nil, fmt.Errorf("%w: QoS threshold control needs scheme %v, got %v",
					ErrThreshold, compress.FPVaxx, cfg.Scheme)
			}
		}
		if len(q.Budgets) > 0 {
			g.ledger, err = qos.NewLedger(q.Budgets, q.Clock)
			if err != nil {
				return nil, fmt.Errorf("serve: %w", err)
			}
			g.tenants = make(map[string]string, len(q.Budgets))
			for name := range q.Budgets {
				g.tenants[name] = name
			}
		}
		frac := q.ShedFraction
		if frac == 0 {
			frac = qos.DefaultShedFraction
		}
		if frac > 1 {
			return nil, fmt.Errorf("serve: shed fraction %g beyond 1", frac)
		}
		if frac > 0 {
			g.shedAt = int(frac * float64(cfg.QueueDepth))
			if g.shedAt < 1 {
				g.shedAt = 1
			}
		}
	}
	for i := range g.shards {
		g.shards[i] = newShard(i, newPool(cfg, factory), cfg, g.qosCtl, g.ledger)
	}
	for _, sh := range g.shards {
		g.wg.Add(1)
		go sh.run(&g.wg)
	}
	if cfg.QoS != nil && cfg.QoS.Interval > 0 {
		g.samplerStop = make(chan struct{})
		g.samplerWg.Add(1)
		go g.sampleLoop(cfg.QoS.Interval)
	}
	return g, nil
}

// sampleLoop is the background control loop: every interval it observes
// the gateway's load signal and ticks the QoS controller, until Close.
func (g *Gateway) sampleLoop(interval time.Duration) {
	defer g.samplerWg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			g.QoSTick()
		case <-g.samplerStop:
			return
		}
	}
}

// Config returns the gateway's effective configuration (defaults filled).
func (g *Gateway) Config() Config { return g.cfg }

// shardFor maps a flow to its owning shard. The hash is a murmur3-style
// finalizer over the packed pair, deterministic across runs so a flow's
// dictionary state always lives on one shard.
func (g *Gateway) shardFor(src, dst int) *shard {
	h := uint64(uint32(src))<<32 | uint64(uint32(dst))
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return g.shards[h%uint64(len(g.shards))]
}

// validate rejects malformed requests before they reach a shard.
func (g *Gateway) validate(req Request) error {
	if req.Block == nil || len(req.Block.Words) == 0 {
		return fmt.Errorf("serve: request needs a non-empty block")
	}
	if req.Src < 0 || req.Src >= g.cfg.Nodes || req.Dst < 0 || req.Dst >= g.cfg.Nodes {
		return fmt.Errorf("serve: endpoint pair (%d,%d) outside the %d-node gateway",
			req.Src, req.Dst, g.cfg.Nodes)
	}
	return nil
}

// Submit enqueues a request without waiting for its result, which is
// later sent on reply (pass nil to discard it). reply must have a free
// buffer slot per outstanding request — the shard worker never blocks on
// it and drops the result otherwise. Returns ErrOverloaded when the
// flow's shard queue is full and ErrClosed after Close.
func (g *Gateway) Submit(req Request, reply chan<- Result) error {
	return g.submit(pending{req: req, reply: reply})
}

// submit validates p.req and enqueues p on its flow's shard; it is
// Submit for both in-process callers and server connections.
func (g *Gateway) submit(p pending) error {
	req := p.req
	if err := g.validate(req); err != nil {
		return err
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.closed {
		return ErrClosed
	}
	sh := g.shardFor(req.Src, req.Dst)
	// Priority shedding: past the QoS watermark, approximatable requests
	// are turned away while the queue's remaining slots stay reserved for
	// exact-class (negative ThresholdPct) traffic, which is only refused
	// when the queue is truly full.
	if g.shedAt > 0 && req.ThresholdPct >= 0 && len(sh.queue) >= g.shedAt {
		sh.rejected.Add(1)
		sh.shed.Add(1)
		sh.trace(obs.EvOverload, req.Tag, 1)
		return ErrOverloaded
	}
	p.enq = time.Now()
	select {
	case sh.queue <- p:
		sh.accepted.Add(1)
		return nil
	default:
		sh.rejected.Add(1)
		sh.trace(obs.EvOverload, req.Tag, 0)
		return ErrOverloaded
	}
}

// doReplies recycles the 1-buffered reply channels of Do. A shard sends
// exactly one result for every request it accepts, also after Close
// (workers drain the closed queue), so a channel is empty again once Do
// has received from it or the submission failed.
var doReplies = sync.Pool{New: func() any { return make(chan Result, 1) }}

// Do submits a request and waits for its result — the in-process client
// path. The returned error is either a submission failure (ErrOverloaded,
// ErrClosed, validation) or the per-request Result.Err. Its reply channel
// is recycled, so a call allocates only the result block.
func (g *Gateway) Do(req Request) (Result, error) {
	reply := doReplies.Get().(chan Result)
	defer doReplies.Put(reply)
	if err := g.Submit(req, reply); err != nil {
		return Result{}, err
	}
	res := <-reply
	return res, res.Err
}

// qosLoad is the gateway's load signal: the worst shard's queue
// occupancy. Reading channel lengths only, it never blocks a worker.
func (g *Gateway) qosLoad() float64 {
	var load float64
	for _, sh := range g.shards {
		if q := float64(len(sh.queue)) / float64(g.cfg.QueueDepth); q > load {
			load = q
		}
	}
	return load
}

// QoSTick runs one control step: observe the load signal, tick the
// controller, return the resulting default threshold. Without QoS it
// reports the configured threshold unchanged. The background sampler
// (Config.QoS.Interval > 0) calls this on a timer; deterministic tests
// call it directly instead.
func (g *Gateway) QoSTick() int {
	if g.qosCtl == nil {
		return g.cfg.ThresholdPct
	}
	return g.qosCtl.Tick(g.qosLoad())
}

// QoSController exposes the gateway's control loop (nil without QoS),
// for metric registration and tests.
func (g *Gateway) QoSController() *qos.Controller { return g.qosCtl }

// Budgets snapshots every tenant's error-budget state; nil when no
// budgets are configured.
func (g *Gateway) Budgets() map[string]qos.BudgetSnapshot {
	if g.ledger == nil {
		return nil
	}
	return g.ledger.Snapshot()
}

// Ledger exposes the gateway's budget book (nil without budgets), for
// metric registration and tests.
func (g *Gateway) Ledger() *qos.Ledger { return g.ledger }

// Metrics snapshots the per-shard counters and their aggregate.
func (g *Gateway) Metrics() Metrics {
	shards := make([]ShardMetrics, len(g.shards))
	for i, sh := range g.shards {
		shards[i] = sh.metrics()
	}
	return aggregate(shards)
}

// CodecStats aggregates the codec operation counts across every pool.
// The snapshot is taken by the shard workers themselves (or directly
// once the gateway is closed), so it is safe to call concurrently with
// traffic — it queues behind in-flight batches.
func (g *Gateway) CodecStats() compress.OpStats {
	var s compress.OpStats
	g.withPools(func(p *pool) { s.Add(p.fabric.Stats()) })
	return s
}

// withPools runs fn against every shard's pool from a context where the
// pool is quiescent: inside the owning worker while the gateway is live,
// or directly once it closed. fn runs once per pool, in shard order, and
// must not block indefinitely.
func (g *Gateway) withPools(fn func(p *pool)) {
	g.mu.RLock()
	closed := g.closed
	g.mu.RUnlock()
	if closed {
		// Workers have exited (or are exiting); wait so the access is
		// ordered after their last fabric write.
		g.wg.Wait()
		for _, sh := range g.shards {
			fn(sh.pool)
		}
		return
	}
	for _, sh := range g.shards {
		done := make(chan struct{})
		wrapped := func(p *pool) {
			fn(p)
			close(done)
		}
		select {
		case sh.ctl <- wrapped:
			<-done
		case <-g.done:
			// Raced with Close; the worker is gone, access directly.
			fn(sh.pool)
		}
	}
}

// Close stops accepting requests, drains every shard queue (queued
// requests still get replies), and waits for the workers to exit.
// Closing twice is a no-op.
func (g *Gateway) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	for _, sh := range g.shards {
		close(sh.queue)
	}
	g.mu.Unlock()
	if g.samplerStop != nil {
		close(g.samplerStop)
		g.samplerWg.Wait()
	}
	g.wg.Wait()
	close(g.done)
	return nil
}
