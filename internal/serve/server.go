package serve

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"approxnoc/internal/value"
)

const (
	// defaultMaxInflight is the per-connection pipeline bound: how many
	// requests may sit between the read loop and the write loop at once.
	// It sizes the per-connection result channel, so the shard workers'
	// never-block reply contract holds by construction.
	defaultMaxInflight = 1024
	// wireFlushBytes is the write-batch target: the connection writer
	// keeps coalescing ready responses into its arena until nothing more
	// is immediately ready or the arena reaches this size, then issues
	// one conn.Write for the whole batch.
	wireFlushBytes = 64 << 10
	// wireMaxRetained caps the arena capacity kept across batches, so
	// one burst of maximum-size frames does not pin memory forever.
	wireMaxRetained = 1 << 20
	// slotMaxRetainedWords caps the block capacity a recycled slot keeps,
	// for the same reason: a burst of 65 535-word blocks must not stay
	// pinned in every slot of a connection.
	slotMaxRetainedWords = 256
)

// slot is the storage one in-flight request occupies on a server
// connection: the block the reader parses the request into, the block
// the shard worker decodes the result into, and the Result the writer
// encodes. Its blocks are valid from frame read until the response is
// encoded; then the writer recycles the slot and the reader reuses it.
type slot struct {
	in, out value.Block
	res     Result
	results chan<- *slot // the connection's results channel
}

// recycle readies the slot for its next request, dropping block storage
// that grew past slotMaxRetainedWords.
func (sl *slot) recycle() {
	sl.res = Result{}
	if cap(sl.in.Words) > slotMaxRetainedWords {
		sl.in.Words = nil
	}
	if cap(sl.out.Words) > slotMaxRetainedWords {
		sl.out.Words = nil
	}
}

// WireStats is a snapshot of the server's wire-path counters.
type WireStats struct {
	// Conns is the number of live connections.
	Conns int64
	// Inflight is the number of requests currently between a connection
	// read loop and its write loop — the aggregate pipeline depth.
	Inflight int64
	// ReadFrames counts request frames decoded.
	ReadFrames uint64
	// WriteBatches counts conn.Write calls; WriteFrames the response
	// frames they carried (WriteFrames/WriteBatches is the coalescing
	// rate); WriteBytes the total bytes put on the wire.
	WriteBatches, WriteFrames, WriteBytes uint64
}

// wireStats holds the live atomics behind WireStats.
type wireStats struct {
	conns        atomic.Int64
	inflight     atomic.Int64
	readFrames   atomic.Uint64
	writeBatches atomic.Uint64
	writeFrames  atomic.Uint64
	writeBytes   atomic.Uint64
}

func (w *wireStats) snapshot() WireStats {
	return WireStats{
		Conns:        w.conns.Load(),
		Inflight:     w.inflight.Load(),
		ReadFrames:   w.readFrames.Load(),
		WriteBatches: w.writeBatches.Load(),
		WriteFrames:  w.writeFrames.Load(),
		WriteBytes:   w.writeBytes.Load(),
	}
}

// Server exposes a Gateway over TCP with the length-prefixed binary
// protocol. Each connection runs a reader and a writer goroutine and
// streams pipelined requests: the reader decodes frames and submits them
// to the gateway without waiting for results, the writer drains the
// connection's result channel and encodes responses (out of order, keyed
// by request id) into a reused arena flushed in coalesced batches.
//
// In-flight requests per connection are bounded by maxInflight slots:
// the reader takes a free slot per request (making one only while fewer
// than maxInflight exist) and parses into it, the shard worker decodes
// into it, and the writer recycles it once the response is encoded. A
// peer that stops reading therefore stalls — writer blocked on the
// socket, slots exhausted, reader parked waiting for a free one —
// without deadlocking: everything drains as soon as the peer reads
// again, and shard workers are never blocked either way because the
// results channel has room for every slot.
type Server struct {
	gw *Gateway

	// maxInflight bounds the per-connection pipeline depth (0 means
	// defaultMaxInflight). Tests set it before Serve.
	maxInflight int

	wire wireStats

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps a gateway. The server does not own the gateway: Close
// stops the listener and connections but leaves the gateway running.
func NewServer(gw *Gateway) *Server {
	return &Server{gw: gw, conns: make(map[net.Conn]struct{})}
}

// Gateway returns the wrapped gateway.
func (s *Server) Gateway() *Gateway { return s.gw }

// WireStats snapshots the wire-path counters.
func (s *Server) WireStats() WireStats { return s.wire.snapshot() }

// Addr returns the listener address, nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections on ln until Close (which returns nil) or an
// accept error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("serve: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Close stops the listener, closes every live connection, and waits for
// the connection handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

// handle runs one connection's reader side and supervises its writer.
func (s *Server) handle(conn net.Conn) {
	limit := s.maxInflight
	if limit <= 0 {
		limit = defaultMaxInflight
	}
	// results carries shard replies and reader-side synchronous errors
	// to the writer, free the recycled slots back to the reader. Both
	// hold every slot the connection may make, so sends on them never
	// block a shard worker, the reader or the writer.
	results := make(chan *slot, limit)
	free := make(chan *slot, limit)
	readerDone := make(chan struct{})
	writerDone := make(chan struct{})
	s.wire.conns.Add(1)

	go func() {
		defer close(writerDone)
		s.writeConn(conn, results, free, readerDone)
	}()

	made := s.readConn(conn, results, free, limit, writerDone)

	close(readerDone)
	// Drop the connection before joining the writer: a writer parked in
	// conn.Write on a peer that stopped reading must be unblocked, and
	// once the read side is gone there is nobody left to answer.
	conn.Close()
	<-writerDone
	// Requests still in flight at teardown settle into the buffered
	// results channel and are garbage collected with their slots; every
	// slot not back on the free list is one of them, so release those
	// from the gauge before dropping the connection.
	s.wire.inflight.Add(-int64(made - len(free)))
	s.wire.conns.Add(-1)
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.wg.Done()
}

// readConn is the connection's read loop: decode a frame, take a free
// slot (blocking is the backpressure path), parse the request into it,
// submit to the gateway. Synchronous failures — parse errors, validation
// errors, ErrOverloaded — become error results routed through the same
// writer as shard replies, so the peer sees every request answered in
// whatever order results are ready. It returns how many slots it made.
func (s *Server) readConn(conn net.Conn, results chan<- *slot, free <-chan *slot, limit int, writerDone <-chan struct{}) (made int) {
	r := bufio.NewReaderSize(conn, 64<<10)
	var buf []byte
	for {
		frame, err := readFrame(r, buf)
		if err != nil {
			return made
		}
		buf = frame[:0]
		s.wire.readFrames.Add(1)
		var sl *slot
		select {
		case sl = <-free:
		default:
			if made < limit {
				sl = &slot{results: results}
				made++
				break
			}
			select {
			case sl = <-free:
			case <-writerDone:
				return made
			}
		}
		s.wire.inflight.Add(1)
		id, req, err := parseRequestInto(&sl.in, frame, s.gw.tenants)
		if err == nil {
			err = s.gw.submit(pending{req: req, slot: sl})
		}
		if err != nil {
			sl.res = Result{Tag: id, Err: err}
			results <- sl
		}
	}
}

// writeConn drains results, encodes each response in place into a
// reused arena (header and payload appended back-to-back, no per-frame
// allocation), and flushes the arena with a single conn.Write once no
// more results are immediately ready or the batch reaches
// wireFlushBytes. Slots recycle at encode time: the response no longer
// needs them, so the reader may admit the next request even while this
// batch is still being written.
func (s *Server) writeConn(conn net.Conn, results <-chan *slot, free chan<- *slot, readerDone <-chan struct{}) {
	wbuf := make([]byte, 0, wireFlushBytes)
	for {
		var sl *slot
		select {
		case sl = <-results:
		case <-readerDone:
			return
		}
		wbuf = wbuf[:0]
		frames := 0
		for coalesce := true; coalesce; {
			wbuf = appendResponseFrame(wbuf, sl.res)
			frames++
			sl.recycle()
			free <- sl // never blocks: free has room for every slot
			s.wire.inflight.Add(-1)
			if len(wbuf) >= wireFlushBytes {
				break
			}
			select {
			case sl = <-results:
			default:
				coalesce = false
			}
		}
		if _, err := conn.Write(wbuf); err != nil {
			conn.Close() // sheds the read loop
			return
		}
		s.wire.writeBatches.Add(1)
		s.wire.writeFrames.Add(uint64(frames))
		s.wire.writeBytes.Add(uint64(len(wbuf)))
		if cap(wbuf) > wireMaxRetained {
			wbuf = make([]byte, 0, wireFlushBytes)
		}
	}
}
