package serve

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"approxnoc/internal/value"
)

// Loadgen parameterizes a loopback throughput measurement of the wire
// path: Conns TCP connections, each keeping Depth pipelined requests in
// flight, moving Words-word blocks through a gateway served on an
// ephemeral loopback port.
type Loadgen struct {
	// Conns is the number of concurrent TCP connections (0 means 1).
	Conns int
	// Depth is the pipeline depth per connection — how many requests
	// each connection keeps in flight (0 means 1; 1 is lock-step
	// request/response, the pre-pipelining behavior).
	Depth int
	// Words is the block payload size in 32-bit words (0 means 16).
	Words int
	// Records is the total number of requests to move summed over all
	// connections, not per connection: Run splits it evenly across
	// Conns, spreading any remainder one extra request at a time (0
	// means 10000).
	Records int
	// Tenant stamps every generated request with a QoS tenant name, so
	// the replay spends that tenant's error budget ("" means unbudgeted).
	Tenant string
	// ThresholdPct is the per-request threshold override applied to every
	// generated request (DefaultThreshold uses the gateway's, possibly
	// QoS-raised, default; ThresholdExact forces exact-class traffic).
	ThresholdPct int
}

// LoadgenResult is one loopback throughput measurement.
type LoadgenResult struct {
	// Records is the number of requests completed; Retries counts
	// ErrOverloaded re-submissions on top of them. BudgetRefused counts
	// records answered with ErrBudgetExhausted — settled, not retried,
	// since the refusal is a definitive per-request answer.
	Records, Retries, BudgetRefused int
	// Elapsed is the wall time of the replay (setup excluded).
	Elapsed time.Duration
	// RecordsPerSec is the headline throughput.
	RecordsPerSec float64
	// PayloadMBPerSec is uncompressed block payload moved per second
	// (requests only; responses double the wire traffic).
	PayloadMBPerSec float64
	// Wire snapshots the server's wire counters after a Run (zero after
	// a bare Replay).
	Wire WireStats
}

// LoadgenRig is a ready-to-drive loopback gateway: server, listener,
// dialed clients, and the blocks a generated run sends. It separates
// setup from measurement so benchmark iterations reuse one rig; Run and
// Replay (for caller-built requests) may be called any number of times.
type LoadgenRig struct {
	Loadgen  // knobs, zero values filled
	gw       *Gateway
	srv      *Server
	serveErr chan error
	clients  []*Client      // Conns of them
	blocks   []*value.Block // reused round-robin for the whole run
}

// NewLoadgenRig builds a gateway from cfg, serves it on an ephemeral
// loopback port, and dials lg.Conns clients. Close the rig to tear all
// of it down (the gateway included).
func NewLoadgenRig(cfg Config, lg Loadgen) (*LoadgenRig, error) {
	return newLoadgenRig(cfg, lg, Dial)
}

// newLoadgenRig is NewLoadgenRig with the connections made by dial,
// which receives the server's address once per connection.
func newLoadgenRig(cfg Config, lg Loadgen, dial func(addr string) (*Client, error)) (*LoadgenRig, error) {
	if lg.Conns == 0 {
		lg.Conns = 1
	}
	if lg.Depth == 0 {
		lg.Depth = 1
	}
	if lg.Words == 0 {
		lg.Words = 16
	}
	if lg.Records == 0 {
		lg.Records = 10000
	}
	if lg.Conns < 0 || lg.Depth < 0 || lg.Words < 0 || lg.Records < 0 {
		return nil, fmt.Errorf("serve: loadgen knobs must be positive: %+v", lg)
	}
	if lg.Words > MaxBlockWords {
		return nil, fmt.Errorf("serve: loadgen words %d exceeds wire limit %d", lg.Words, MaxBlockWords)
	}
	gw, err := New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close()
		return nil, fmt.Errorf("serve: %w", err)
	}
	r := &LoadgenRig{Loadgen: lg, gw: gw, srv: NewServer(gw), serveErr: make(chan error, 1),
		blocks: make([]*value.Block, 64)}
	go func() { r.serveErr <- r.srv.Serve(ln) }()
	// A deterministic spread of block contents: enough variety to keep
	// dictionary codecs honest, reused across the whole run so block
	// generation never shows up in the measurement.
	for i := range r.blocks {
		blk := value.NewBlock(lg.Words, value.Int32, true)
		for w := range blk.Words {
			blk.Words[w] = uint32(i*2654435761 + w*40503)
		}
		r.blocks[i] = blk
	}
	for c := 0; c < lg.Conns; c++ {
		cl, err := dial(ln.Addr().String())
		if err != nil {
			r.Close()
			return nil, err
		}
		r.clients = append(r.clients, cl)
	}
	return r, nil
}

// Replay is the one request driver, under Run and the CLI self-tests.
// It moves records requests through the rig's connections: connection
// c issues next(c, 0), next(c, 1), ... for its share — records split
// evenly, any remainder spread one extra request at a time. hook, when non-nil, sees every successful result on its
// connection's goroutine, so it must be safe for concurrent use across
// connections. The first connection to fail aborts the run's result;
// the others still finish their share.
func (r *LoadgenRig) Replay(records int, next func(conn, seq int) Request, hook func(Request, Result)) (LoadgenResult, error) {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex // guards res and first
		res   = LoadgenResult{Records: records}
		first error
	)
	start := time.Now()
	for c, cl := range r.clients {
		// Spread the remainder so every record is issued exactly once.
		per := records / len(r.clients)
		if c < records%len(r.clients) {
			per++
		}
		wg.Add(1)
		go func(c int, cl *Client, per int) {
			defer wg.Done()
			retries, refused, err := r.pipeline(c, cl, per, next, hook)
			mu.Lock()
			defer mu.Unlock()
			res.Retries += retries
			res.BudgetRefused += refused
			if first == nil {
				first = err
			}
		}(c, cl, per)
	}
	wg.Wait()
	if first != nil {
		return LoadgenResult{}, first
	}
	res.Elapsed = time.Since(start)
	res.RecordsPerSec = float64(records) / res.Elapsed.Seconds()
	return res, nil
}

// pipeline is one connection's share of a Replay: per requests, up to
// Depth of them in flight, each counted once it settles.
func (r *LoadgenRig) pipeline(c int, cl *Client, per int, next func(conn, seq int) Request, hook func(Request, Result)) (retries, refused int, err error) {
	done := make(chan *Call, r.Depth)
	outstanding, sent := 0, 0
	settle := func(call *Call) error {
		outstanding--
		switch err := call.Err; {
		case err == nil:
			if hook != nil {
				hook(call.Req, call.Res)
			}
		case errors.Is(err, ErrBudgetExhausted):
			// A definitive answer, not backpressure: the record settles
			// as refused rather than being re-issued (the ledger charges
			// at execution, so a re-issue could spend a budget that
			// refilled in between).
			refused++
		case errors.Is(err, ErrOverloaded):
			// Back off and re-issue: backpressure is expected under a
			// deep pipeline, the record still counts only once it
			// completes.
			retries++
			runtime.Gosched()
			cl.Go(call.Req, done)
			outstanding++
		default:
			return fmt.Errorf("serve: loadgen conn %d: %w", c, err)
		}
		return nil
	}
	for sent < per || outstanding > 0 {
		for outstanding < r.Depth && sent < per {
			cl.Go(next(c, sent), done)
			outstanding++
			sent++
		}
		// Block for one completion, then drain everything already
		// settled, so the refill above reissues in batches — the write
		// arena then coalesces them into one flush.
		if err = settle(<-done); err != nil {
			return
		}
		for drained := false; !drained && outstanding > 0; {
			select {
			case call := <-done:
				if err = settle(call); err != nil {
					return
				}
			default:
				drained = true
			}
		}
	}
	return
}

// Run replays records generated requests (0 means Records) and returns
// the measurement with the server's wire counters. Connections walk the
// endpoint space from staggered starts, so flows spread across shards;
// every (src, dst) is a distinct flow.
func (r *LoadgenRig) Run(records int) (LoadgenResult, error) {
	if records <= 0 {
		records = r.Records
	}
	endpoints := r.gw.Config().Nodes
	res, err := r.Replay(records, func(conn, seq int) Request {
		src := (conn + seq) % endpoints
		return Request{
			Src: src, Dst: (src + 1) % endpoints,
			Block:        r.blocks[(conn+seq)%len(r.blocks)],
			ThresholdPct: r.ThresholdPct,
			Tenant:       r.Tenant,
		}
	}, nil)
	res.PayloadMBPerSec = res.RecordsPerSec * float64(4*r.Words) / (1 << 20)
	res.Wire = r.srv.WireStats()
	return res, err
}

// Gateway returns the rig's gateway, for metrics and codec statistics.
func (r *LoadgenRig) Gateway() *Gateway { return r.gw }

// Close tears down clients, server, and gateway.
func (r *LoadgenRig) Close() error {
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

// RunLoopback is the one-shot convenience: build a rig, run it once,
// tear it down. cmd/approxnoc-serve -loadgen and the approxnoc-bench
// gateway experiment use it; benchmarks use the rig directly so setup
// stays out of the measured window.
func RunLoopback(cfg Config, lg Loadgen) (LoadgenResult, error) {
	rig, err := NewLoadgenRig(cfg, lg)
	if err != nil {
		return LoadgenResult{}, err
	}
	res, err := rig.Run(0)
	if cerr := rig.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return res, err
}
