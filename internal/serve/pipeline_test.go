package serve_test

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"approxnoc/internal/compress"
	"approxnoc/internal/serve"
	"approxnoc/internal/value"
)

// startPipelineServer is startServer with access to the Server itself
// (for its pipeline bound and WireStats). maxInflight 0 keeps the default.
func startPipelineServer(t *testing.T, cfg serve.Config, maxInflight int) (*serve.Server, string) {
	t.Helper()
	gw, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(gw)
	srv.SetMaxInflight(maxInflight)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close()
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-errCh; err != nil {
			t.Errorf("serve: %v", err)
		}
		gw.Close()
	})
	return srv, ln.Addr().String()
}

// TestPipelineSlowReaderBackpressure drives the write-side blocking
// path: a raw peer streams 4000 large requests without reading a single
// response, so the server's writer parks in conn.Write, the bounded
// slots run out, and the read loop stalls waiting for a free one. None of
// that may deadlock: once the peer starts reading, everything drains and
// every request is answered exactly once.
func TestPipelineSlowReaderBackpressure(t *testing.T) {
	const records = 4000
	const words = 256 // ~1 KiB responses: 4000 of them cannot fit in kernel buffers
	_, addr := startPipelineServer(t,
		serve.Config{Nodes: 8, Scheme: compress.Baseline, ThresholdPct: 0, Shards: 2, QueueDepth: 8192},
		32)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	blk := value.NewBlock(words, value.Int32, true)
	for w := range blk.Words {
		blk.Words[w] = uint32(w*2654435761 + 97)
	}
	writeErr := make(chan error, 1)
	go func() {
		w := bufio.NewWriterSize(conn, 64<<10)
		var hdr [4]byte
		for i := 0; i < records; i++ {
			payload, err := serve.MarshalRequest(uint64(i+1), serve.Request{
				Src: i % 8, Dst: (i + 1) % 8, Block: blk, ThresholdPct: serve.DefaultThreshold,
			})
			if err != nil {
				writeErr <- err
				return
			}
			binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
			if _, err := w.Write(hdr[:]); err != nil {
				writeErr <- err
				return
			}
			if _, err := w.Write(payload); err != nil {
				writeErr <- err
				return
			}
		}
		writeErr <- w.Flush()
	}()
	// Give the pipeline time to wedge: slots exhausted, writer blocked
	// on the socket, reader parked. Then start draining.
	time.Sleep(100 * time.Millisecond)
	if err := conn.SetReadDeadline(time.Now().Add(60 * time.Second)); err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool, records)
	for len(seen) < records {
		frame, err := readRawFrame(conn)
		if err != nil {
			t.Fatalf("after %d responses: %v", len(seen), err)
		}
		res, err := serve.UnmarshalResponse(frame)
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil {
			t.Fatalf("request %d answered with error: %v", res.Tag, res.Err)
		}
		if seen[res.Tag] {
			t.Fatalf("request %d answered twice", res.Tag)
		}
		if !res.Block.Equal(blk) {
			t.Fatalf("request %d: block altered at threshold 0", res.Tag)
		}
		seen[res.Tag] = true
	}
	if err := <-writeErr; err != nil {
		t.Fatalf("write side: %v", err)
	}
}

// TestPipelineMidStreamClientDrop closes a client with a pipeline full
// of in-flight requests. Every call must still complete (with a result
// or a transport error — never silence), the server must shed the
// connection without leaking in-flight slots, and new clients must be
// served as if nothing happened.
func TestPipelineMidStreamClientDrop(t *testing.T) {
	srv, addr := startPipelineServer(t,
		serve.Config{Nodes: 8, Scheme: compress.Baseline, ThresholdPct: 0, Shards: 2, QueueDepth: 1024}, 0)
	cl, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	const inflight = 200
	blocks := testBlocks(t, "ssca2", 8, 33)
	done := make(chan *serve.Call, inflight)
	for i := 0; i < inflight; i++ {
		cl.Go(serve.Request{
			Src: i % 8, Dst: (i + 1) % 8, Block: blocks[i%len(blocks)],
			ThresholdPct: serve.DefaultThreshold,
		}, done)
	}
	cl.Close()
	deadline := time.After(60 * time.Second)
	for i := 0; i < inflight; i++ {
		select {
		case call := <-done:
			if call.Err != nil && !errors.Is(call.Err, serve.ErrClosed) &&
				!errors.Is(call.Err, serve.ErrOverloaded) {
				// Transport errors are expected mid-drop; what they may
				// not be is anything other than the connection teardown.
				var ne net.Error
				if !errors.As(call.Err, &ne) && !errors.Is(call.Err, net.ErrClosed) {
					t.Logf("call completed with: %v", call.Err)
				}
			}
		case <-deadline:
			t.Fatalf("only %d of %d in-flight calls completed after Close", i, inflight)
		}
	}
	// The server side must settle: dropped connection gone, every slot
	// released back out of the in-flight gauge.
	settled := false
	for i := 0; i < 1000 && !settled; i++ {
		ws := srv.WireStats()
		settled = ws.Conns == 0 && ws.Inflight == 0
		if !settled {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if ws := srv.WireStats(); !settled {
		t.Fatalf("server did not settle after client drop: %+v", ws)
	}
	// And keep serving.
	cl2, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	res := doRetry(t, cl2, serve.Request{Src: 1, Dst: 2, Block: blocks[0], ThresholdPct: serve.DefaultThreshold})
	if !res.Block.Equal(blocks[0]) {
		t.Fatal("round trip after drop altered the block at threshold 0")
	}
}

// TestPipelineOverloadInterleaved forces ErrOverloaded responses to
// interleave with successful ones inside a single deep pipeline: a
// one-shard gateway with a one-slot queue and no coalescing, driven 50
// requests deep. Every request must complete exactly once — overloaded
// or bit-identical — in whatever order results come back.
func TestPipelineOverloadInterleaved(t *testing.T) {
	_, addr := startPipelineServer(t,
		serve.Config{Nodes: 8, Scheme: compress.DIVaxx, ThresholdPct: 0, Shards: 1, QueueDepth: 1, MaxBatch: 1}, 0)
	cl, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const depth = 50
	const minRecords, maxRecords = 2000, 20000
	blocks := testBlocks(t, "ssca2", 64, 7)
	done := make(chan *serve.Call, depth)
	issue := func(i int) {
		cl.Go(serve.Request{
			Src: i % 8, Dst: (i + 1) % 8, Block: blocks[i%len(blocks)],
			ThresholdPct: serve.DefaultThreshold, Tag: uint64(i),
		}, done)
	}
	sent, completed, ok, overloaded := 0, 0, 0, 0
	for sent < depth {
		issue(sent)
		sent++
	}
	for completed < sent {
		call := <-done
		completed++
		switch {
		case call.Err == nil:
			ok++
			if call.Res.Tag != call.Req.Tag {
				t.Fatalf("response tag %d for request %d", call.Res.Tag, call.Req.Tag)
			}
			if !call.Res.Block.Equal(call.Req.Block) {
				t.Fatalf("request %d: block altered at threshold 0", call.Req.Tag)
			}
		case errors.Is(call.Err, serve.ErrOverloaded):
			overloaded++
		default:
			t.Fatalf("request %d: %v", call.Req.Tag, call.Err)
		}
		// Keep the pipeline full until the mix is proven and the floor
		// is met; the cap keeps a pathological run from spinning forever.
		if sent < maxRecords && (sent < minRecords || ok == 0 || overloaded == 0) {
			issue(sent)
			sent++
		}
	}
	t.Logf("%d requests: %d ok, %d overloaded", completed, ok, overloaded)
	if ok == 0 || overloaded == 0 {
		t.Fatalf("wanted both outcomes interleaved in one pipeline, got %d ok / %d overloaded over %d requests", ok, overloaded, completed)
	}
}
