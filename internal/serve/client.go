package serve

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"approxnoc/internal/value"
)

// clientMaxBuffered bounds the encoded-but-unflushed request bytes a
// client accumulates before Go blocks; it is the client-side analogue of
// the server's in-flight slot cap and keeps a runaway pipeline from
// buffering without bound.
const clientMaxBuffered = 1 << 20

// Call is one pipelined request issued with (*Client).Go. When the
// response (or a transport failure) arrives, the call is sent on Done;
// Res then holds the result and Err the per-request or transport error.
// A call that Go returns is new and belongs to the caller; the calls of
// Do never leave the client, which recycles them.
type Call struct {
	// Req is the request as submitted.
	Req Request
	// Res is the response; Res.Tag is restored to Req.Tag.
	Res Result
	// Err is Res.Err, a marshal failure, or the transport error.
	Err error
	// Done receives the call itself on completion. It must be buffered
	// with a free slot per outstanding call sharing it — completion
	// never blocks on it and a full channel drops the notification, the
	// same contract as Gateway.Submit reply channels.
	Done chan *Call
}

// deliver completes the call without ever blocking the delivering
// goroutine (the read loop or a failure path).
func (call *Call) deliver() {
	select {
	case call.Done <- call:
	default:
	}
}

// Client is the TCP client of the gateway protocol. It is safe for
// concurrent use and pipelines: requests from any number of goroutines
// are encoded back-to-back into a shared write arena, flushed to the
// connection in coalesced batches by one writer goroutine, and matched
// to their (possibly out-of-order) responses by request id. Do is the
// synchronous round trip; Go issues a request without waiting, so one
// goroutine can keep many requests in flight.
type Client struct {
	conn net.Conn

	// wmu guards the encode arena. Frames are appended in place —
	// request bytes are never staged in per-call slices — and the write
	// loop swaps the arena against a spare under the same lock, so
	// encode and conn.Write overlap without copying.
	wmu    sync.Mutex
	wcond  *sync.Cond // signals arena drain and connection failure
	wbuf   []byte     // frames awaiting flush
	wspare []byte     // arena being written; swapped back after the Write
	wwake  chan struct{}

	mu      sync.Mutex // guards pending and err
	pending map[uint64]*Call
	err     error

	nextID atomic.Uint64
	done   chan struct{}
	once   sync.Once
}

// Dial connects to a gateway server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (any net.Conn, so tests can
// use net.Pipe) and starts the reader and writer goroutines.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		pending: make(map[uint64]*Call),
		wwake:   make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	c.wcond = sync.NewCond(&c.wmu)
	go c.readLoop()
	go c.writeLoop()
	return c
}

// Transfer is the convenience form of Do for the common case.
func (c *Client) Transfer(src, dst int, blk *value.Block) (*value.Block, error) {
	res, err := c.Do(Request{Src: src, Dst: dst, Block: blk, ThresholdPct: DefaultThreshold})
	if err != nil {
		return nil, err
	}
	return res.Block, nil
}

// doCalls recycles the calls of Do, each with its own 1-buffered Done.
// A call is delivered exactly once (pending is keyed by id and forget
// checks it), so its Done is empty again when Do has received from it.
var doCalls = sync.Pool{New: func() any { return &Call{Done: make(chan *Call, 1)} }}

// Do sends one request and waits for its response. The returned error is
// the transport failure or the server-reported per-request error
// (ErrOverloaded round-trips as itself). The call Do makes is the
// client's: it is cleared and recycled once Do returns, so a round trip
// allocates only the response block.
func (c *Client) Do(req Request) (Result, error) {
	call := doCalls.Get().(*Call)
	call.Req = req
	c.issue(call)
	<-call.Done
	res, err := call.Res, call.Err
	*call = Call{Done: call.Done} // pin no caller block while pooled
	doCalls.Put(call)
	return res, err
}

// Go issues req without waiting for the response: the returned call
// completes on done (allocated 1-buffered when nil) once the response
// arrives. Many calls may share one done channel — give it a free slot
// per outstanding call. The call is new and the caller's to keep. Go
// never blocks on the network round trip, only (briefly) when
// clientMaxBuffered of encoded requests await flushing, which is the
// client-side backpressure bound.
func (c *Client) Go(req Request, done chan *Call) *Call {
	if done == nil {
		done = make(chan *Call, 1)
	}
	call := &Call{Req: req, Done: done}
	c.issue(call)
	return call
}

// issue registers call under a fresh id and encodes its request into the
// write arena, or delivers the call with its error when that fails. It
// writes the call only while it holds it alone: before registering it,
// or after forget has taken it back.
func (c *Client) issue(call *Call) {
	req, id := call.Req, c.nextID.Add(1)

	// Register before the bytes can reach the wire: the response may
	// race back before issue returns.
	c.mu.Lock()
	if c.err != nil {
		call.Err = c.err
		c.mu.Unlock()
		call.deliver()
		return
	}
	c.pending[id] = call
	c.mu.Unlock()

	c.wmu.Lock()
	for len(c.wbuf) >= clientMaxBuffered && !c.failed() {
		c.wcond.Wait()
	}
	if c.failed() {
		c.wmu.Unlock()
		if c.forget(id) {
			c.mu.Lock()
			call.Err = c.err
			c.mu.Unlock()
			call.deliver()
		}
		return
	}
	wbuf, err := appendRequestFrame(c.wbuf, id, req)
	c.wbuf = wbuf
	c.wmu.Unlock()
	if err != nil {
		// Unrepresentable request: nothing was appended, fail locally.
		if c.forget(id) {
			call.Err = err
			call.deliver()
		}
		return
	}
	select {
	case c.wwake <- struct{}{}:
	default:
	}
}

// failed reports whether the connection has been torn down. It is safe
// to call while holding wmu (it does not take mu).
func (c *Client) failed() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// forget unregisters a pending call, reporting whether this caller won
// the race against a concurrent completion (read loop or fail).
func (c *Client) forget(id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.pending[id]; !ok {
		return false
	}
	delete(c.pending, id)
	return true
}

// writeLoop flushes the encode arena to the connection. Each pass swaps
// the full arena against the spare under wmu and writes the whole batch
// with one conn.Write, so concurrent Go calls keep encoding while the
// previous batch is on the wire — coalescing is automatic: the longer a
// Write takes, the bigger the next batch.
func (c *Client) writeLoop() {
	for {
		select {
		case <-c.wwake:
		case <-c.done:
			return
		}
		c.wmu.Lock()
		for len(c.wbuf) > 0 {
			buf := c.wbuf
			c.wbuf = c.wspare[:0]
			c.wmu.Unlock()
			_, err := c.conn.Write(buf)
			c.wmu.Lock()
			c.wspare = buf[:0]
			c.wcond.Broadcast()
			if err != nil {
				c.wmu.Unlock()
				c.conn.Close() // sheds the read loop, which fails pending
				c.fail(fmt.Errorf("%w: write: %w", ErrTransport, err))
				return
			}
		}
		c.wmu.Unlock()
	}
}

// readLoop dispatches response frames to their waiting calls.
func (c *Client) readLoop() {
	r := bufio.NewReaderSize(c.conn, 64<<10)
	var buf []byte
	var err error
	for {
		var frame []byte
		frame, err = readFrame(r, buf)
		if err != nil {
			break
		}
		buf = frame[:0]
		res, perr := parseResponse(frame)
		if perr != nil {
			err = perr
			break
		}
		c.mu.Lock()
		call, ok := c.pending[res.Tag]
		delete(c.pending, res.Tag)
		c.mu.Unlock()
		if ok {
			res.Tag = call.Req.Tag // restore the caller's tag; the wire id was ours
			call.Res = res
			call.Err = res.Err
			call.deliver()
		}
	}
	c.fail(fmt.Errorf("%w: connection lost: %w", ErrTransport, err))
}

// fail records the first transport error, wakes every blocked producer,
// and completes all pending calls with it.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	err = c.err
	var calls []*Call
	for id, call := range c.pending {
		delete(c.pending, id)
		calls = append(calls, call)
	}
	c.mu.Unlock()
	c.once.Do(func() { close(c.done) })
	c.conn.Close() // a failed connection is unusable; shed both loops
	c.wmu.Lock()
	c.wcond.Broadcast()
	c.wmu.Unlock()
	for _, call := range calls {
		call.Err = err
		call.deliver()
	}
}

// Close tears down the connection; in-flight calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.err == nil {
		c.err = ErrClosed
	}
	c.mu.Unlock()
	return c.conn.Close()
}
