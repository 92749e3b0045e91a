package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"approxnoc/internal/serve"
)

// Client errors.
var (
	// ErrNoNodes reports a flow no ring member could accept: the ring
	// is empty, or every member is excluded (down, draining, or already
	// tried by this call).
	ErrNoNodes = errors.New("cluster: no routable node for flow")
	// ErrClosed reports a request issued after Close.
	ErrClosed = errors.New("cluster: client closed")
)

// maxInflightPerNode bounds a client's outstanding requests per node:
// the server's default per-connection pipeline bound.
const maxInflightPerNode = 1024

// ClientConfig parameterizes a cluster Client.
type ClientConfig struct {
	// FailoverBudget bounds how many times one call may be rerouted to
	// a replacement node after a transport failure before the error is
	// surfaced (0 means 3). Each failover re-establishes the stream to
	// the replacement before the retry rides it.
	FailoverBudget int
	// OverloadRetries bounds per-call re-issues after ErrOverloaded; 0
	// means unlimited — the call keeps retrying with backoff until it
	// lands, matching the serve loadgen's "a record counts once it
	// completes" discipline. Set it to surface backpressure instead.
	OverloadRetries int
	// OverloadBackoff is the base delay before re-issuing an overloaded
	// call, doubled per consecutive overload of that call up to 64x. 0
	// means no sleep — just a scheduler yield, the throughput-bench
	// shape. Negative disables even the yield.
	OverloadBackoff time.Duration
	// Dial overrides how node connections are established (default
	// serve.Dial). Tests substitute failure injection.
	Dial func(addr string) (*serve.Client, error)
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.FailoverBudget == 0 {
		c.FailoverBudget = 3
	}
	if c.Dial == nil {
		c.Dial = serve.Dial
	}
	return c
}

// Call is one request in flight through the cluster. It completes on
// Done with Res/Err filled, Node naming the member that answered (or
// last failed), and the retry counters describing the journey.
type Call struct {
	// Req is the request as submitted (Tag preserved end to end; the
	// cluster re-tags frames internally per attempt).
	Req serve.Request
	// Res is the response; Err the final error.
	Res serve.Result
	Err error
	// Node is the member that completed (or last failed) the call.
	Node string
	// Failovers counts node changes after transport failures;
	// OverloadRetries counts ErrOverloaded re-issues.
	Failovers, OverloadRetries int
	// Done receives the call on completion. As with serve.Call, give it
	// a free buffered slot per outstanding call sharing it — delivery
	// never blocks and a full channel drops the notification.
	Done chan *Call

	tried []string // nodes that already failed this call
}

// Outcome implements serve.Settled.
func (cc *Call) Outcome() (serve.Request, serve.Result, error) { return cc.Req, cc.Res, cc.Err }

// deliver completes the call without blocking the delivering goroutine.
func (cc *Call) deliver() {
	select {
	case cc.Done <- cc:
	default:
	}
}

// skip reports whether id already failed this call.
func (cc *Call) skip(id string) bool { return containsStr(cc.tried, id) }

// link is one node's pipelined connection: a serve.Client shared by
// every flow this cluster client routes to the node, an in-flight token
// bound, and the completion channel its relay goroutine drains.
type link struct {
	id, addr string
	cl       *serve.Client
	tokens   chan struct{}
	done     chan *serve.Call
}

// Client routes gateway requests across a cluster: each Go/Call picks
// the flow's owner by ring lookup through the shared View, rides a
// per-node pipelined serve.Client (established lazily, reused by every
// flow owned by that node), and on failure retries — overloaded calls
// back off and re-issue, transport failures mark the node suspect and
// fail over to the ring's replacement after the stream to it is
// established. Client is safe for concurrent use; any number of
// goroutines may keep calls in flight, bounded per node by
// maxInflightPerNode tokens.
type Client struct {
	view *View
	cfg  ClientConfig

	mu      sync.Mutex
	links   map[string]*link
	pending map[uint64]*pendingCall
	closed  bool

	// retryq hands failed calls to the single retrier goroutine, which
	// applies backoff and re-issues. It is unbounded (slice under
	// mutex) so completion relays never block handing off a retry —
	// blocking there could deadlock a relay against its own link's
	// token pool.
	retrymu   sync.Mutex
	retries   []retryItem
	retryWake chan struct{}

	nextTag atomic.Uint64
	done    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
}

// pendingCall tracks one attempt: the cluster call and the link that
// carries it.
type pendingCall struct {
	cc *Call
	lk *link
}

// retryItem is one queued re-issue with its backoff.
type retryItem struct {
	cc    *Call
	delay time.Duration
}

// NewClient builds a client over a view.
func NewClient(view *View, cfg ClientConfig) *Client {
	c := &Client{
		view:      view,
		cfg:       cfg.withDefaults(),
		links:     make(map[string]*link),
		pending:   make(map[uint64]*pendingCall),
		retryWake: make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	c.wg.Add(1)
	go c.retryLoop()
	return c
}

// View returns the client's cluster view.
func (c *Client) View() *View { return c.view }

// Do sends one request and waits for its response.
func (c *Client) Do(req serve.Request) (serve.Result, error) {
	call := c.Go(req, make(chan *Call, 1))
	<-call.Done
	return call.Res, call.Err
}

// Go issues req without waiting: the returned call completes on done
// (allocated 1-buffered when nil) once a node answers or the retry
// budgets are spent. Go blocks only on the per-node in-flight token
// bound — the cluster-side backpressure path.
func (c *Client) Go(req serve.Request, done chan *Call) *Call {
	if done == nil {
		done = make(chan *Call, 1)
	}
	cc := &Call{Req: req, Done: done}
	c.issue(cc)
	return cc
}

// finish completes a call.
func (c *Client) finish(cc *Call, node string, res serve.Result, err error) {
	cc.Node = node
	cc.Res = res
	cc.Res.Tag = cc.Req.Tag
	cc.Err = err
	cc.deliver()
}

// issue routes and sends one attempt of cc. On routing or dial failure
// it consumes failover budget and recurses onto the next candidate.
func (c *Client) issue(cc *Call) {
	for {
		if c.isClosed() {
			c.finish(cc, "", serve.Result{}, ErrClosed)
			return
		}
		id, addr, ok := c.view.Route(cc.Req.Src, cc.Req.Dst, cc.skip)
		if !ok {
			c.finish(cc, "", serve.Result{}, fmt.Errorf("%w: (%d,%d) after %d failovers",
				ErrNoNodes, cc.Req.Src, cc.Req.Dst, cc.Failovers))
			return
		}
		lk, err := c.link(id, addr)
		if err != nil {
			// The replacement stream could not be established: count a
			// failover and walk on.
			c.view.NodeFailed(id)
			cc.tried = append(cc.tried, id)
			cc.Failovers++
			if cc.Failovers > c.cfg.FailoverBudget {
				c.finish(cc, id, serve.Result{}, fmt.Errorf("cluster: node %s: %w", id, err))
				return
			}
			continue
		}
		tag := c.nextTag.Add(1)
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			c.finish(cc, "", serve.Result{}, ErrClosed)
			return
		}
		c.pending[tag] = &pendingCall{cc: cc, lk: lk}
		c.mu.Unlock()
		wreq := cc.Req
		wreq.Tag = tag
		select {
		case lk.tokens <- struct{}{}: // backpressure: bounded per-node pipeline
		case <-c.done:
			c.forget(tag)
			c.finish(cc, id, serve.Result{}, ErrClosed)
			return
		}
		lk.cl.Go(wreq, lk.done)
		return
	}
}

// forget unregisters a pending attempt, reporting whether this caller
// won against a concurrent completion.
func (c *Client) forget(tag uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.pending[tag]; !ok {
		return false
	}
	delete(c.pending, tag)
	return true
}

// link returns the pipelined connection to a node, dialing it (and
// starting its relay) on first use.
func (c *Client) link(id, addr string) (*link, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if lk, ok := c.links[id]; ok {
		c.mu.Unlock()
		return lk, nil
	}
	c.mu.Unlock()
	// Dial outside the lock: a slow or dead node must not stall routing
	// to the others. A lost race simply closes the extra connection.
	cl, err := c.cfg.Dial(addr)
	if err != nil {
		return nil, err
	}
	lk := &link{
		id: id, addr: addr, cl: cl,
		tokens: make(chan struct{}, maxInflightPerNode),
		done:   make(chan *serve.Call, maxInflightPerNode),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cl.Close()
		return nil, ErrClosed
	}
	if cur, ok := c.links[id]; ok {
		c.mu.Unlock()
		cl.Close()
		return cur, nil
	}
	c.links[id] = lk
	c.wg.Add(1)
	go c.relay(lk)
	c.mu.Unlock()
	return lk, nil
}

// dropLink retires a failed link so the next attempt re-dials.
func (c *Client) dropLink(lk *link) {
	c.mu.Lock()
	if c.links[lk.id] == lk {
		delete(c.links, lk.id)
	}
	c.mu.Unlock()
	lk.cl.Close()
}

// relay drains one link's completions: it releases the node token every
// completion holds, then settles the call — delivering, failing over,
// or queueing a retry. It exits with the client.
func (c *Client) relay(lk *link) {
	defer c.wg.Done()
	for {
		select {
		case sc := <-lk.done:
			<-lk.tokens
			c.complete(lk, sc)
		case <-c.done:
			return
		}
	}
}

// complete settles one finished attempt.
func (c *Client) complete(lk *link, sc *serve.Call) {
	c.mu.Lock()
	pc, ok := c.pending[sc.Req.Tag]
	delete(c.pending, sc.Req.Tag)
	closed := c.closed
	c.mu.Unlock()
	if !ok {
		return
	}
	cc := pc.cc
	switch {
	case sc.Err == nil:
		c.finish(cc, lk.id, sc.Res, nil)
	case errors.Is(sc.Err, serve.ErrOverloaded):
		cc.OverloadRetries++
		c.view.countOverloadRetry()
		if closed || (c.cfg.OverloadRetries > 0 && cc.OverloadRetries > c.cfg.OverloadRetries) {
			c.finish(cc, lk.id, serve.Result{}, serve.ErrOverloaded)
			return
		}
		c.enqueueRetry(cc, c.backoff(cc.OverloadRetries))
	case errors.Is(sc.Err, serve.ErrTransport):
		// The attempt died with the stream: the node is suspect, the
		// link is gone, and the call fails over to the ring's
		// replacement (issue re-establishes the stream first).
		c.dropLink(lk)
		c.view.NodeFailed(lk.id)
		cc.tried = append(cc.tried, lk.id)
		cc.Failovers++
		if closed || cc.Failovers > c.cfg.FailoverBudget {
			c.finish(cc, lk.id, serve.Result{}, fmt.Errorf("cluster: node %s: %w", lk.id, sc.Err))
			return
		}
		c.enqueueRetry(cc, 0)
	default:
		// A definitive per-request answer (validation error, gateway
		// closed, threshold rejection, ErrBudgetExhausted): retrying
		// elsewhere cannot change it. Budget refusals in particular
		// must land here and never on the retry paths above — the
		// ledger charges at execution time, so a refused request was
		// never charged and a re-issue would risk double-spending the
		// tenant once the budget refills mid-retry.
		c.finish(cc, lk.id, sc.Res, sc.Err)
	}
}

// backoff computes the delay before the nth consecutive overload
// re-issue of a call.
func (c *Client) backoff(n int) time.Duration {
	if c.cfg.OverloadBackoff <= 0 {
		return c.cfg.OverloadBackoff
	}
	shift := n - 1
	if shift > 6 {
		shift = 6
	}
	return c.cfg.OverloadBackoff << shift
}

// enqueueRetry hands a call to the retrier; never blocks.
func (c *Client) enqueueRetry(cc *Call, delay time.Duration) {
	c.retrymu.Lock()
	c.retries = append(c.retries, retryItem{cc: cc, delay: delay})
	c.retrymu.Unlock()
	select {
	case c.retryWake <- struct{}{}:
	default:
	}
}

// retryLoop re-issues failed calls one at a time, sleeping each item's
// backoff first. Serializing retries through one goroutine doubles as a
// client-wide brake: a backlog of overloaded calls drains no faster
// than the backoff allows.
func (c *Client) retryLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.retryWake:
		case <-c.done:
			c.failQueuedRetries()
			return
		}
		for {
			c.retrymu.Lock()
			if len(c.retries) == 0 {
				c.retrymu.Unlock()
				break
			}
			it := c.retries[0]
			c.retries = c.retries[1:]
			c.retrymu.Unlock()
			switch {
			case it.delay > 0:
				select {
				case <-time.After(it.delay):
				case <-c.done:
					c.finish(it.cc, "", serve.Result{}, ErrClosed)
					c.failQueuedRetries()
					return
				}
			case it.delay == 0:
				runtime.Gosched()
			}
			c.issue(it.cc)
		}
	}
}

// failQueuedRetries completes every queued retry with ErrClosed.
func (c *Client) failQueuedRetries() {
	c.retrymu.Lock()
	items := c.retries
	c.retries = nil
	c.retrymu.Unlock()
	for _, it := range items {
		c.finish(it.cc, "", serve.Result{}, ErrClosed)
	}
}

func (c *Client) isClosed() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// Close tears down every link; in-flight calls fail with ErrClosed (or
// the transport error their link died with). Close blocks until the
// relay and retrier goroutines exit.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return nil
	}
	c.closed = true
	links := make([]*link, 0, len(c.links))
	for _, lk := range c.links {
		links = append(links, lk)
	}
	pending := make([]*pendingCall, 0, len(c.pending))
	for tag, pc := range c.pending {
		delete(c.pending, tag)
		pending = append(pending, pc)
	}
	c.mu.Unlock()
	c.once.Do(func() { close(c.done) })
	for _, lk := range links {
		lk.cl.Close()
	}
	for _, pc := range pending {
		c.finish(pc.cc, "", serve.Result{}, ErrClosed)
	}
	c.wg.Wait()
	return nil
}
