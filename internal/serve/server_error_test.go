package serve_test

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"approxnoc/internal/compress"
	"approxnoc/internal/serve"
	"approxnoc/internal/value"
)

// writeRawFrame sends one length-prefixed payload on a raw connection,
// bypassing the Client so tests can speak the protocol badly on purpose.
func writeRawFrame(t *testing.T, conn net.Conn, payload []byte) {
	t.Helper()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
}

// readRawFrame receives one length-prefixed payload.
func readRawFrame(conn net.Conn) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return nil, err
	}
	buf := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(conn, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// TestServerMalformedFrame sends garbage inside a well-formed frame: the
// server must answer with an error response and keep the connection
// alive for subsequent valid traffic.
func TestServerMalformedFrame(t *testing.T) {
	_, addr := startServer(t, serve.Config{Nodes: 4, Scheme: compress.Baseline, Shards: 1})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	writeRawFrame(t, conn, []byte{0xFF, 0xEE, 0xDD})
	frame, err := readRawFrame(conn)
	if err != nil {
		t.Fatalf("no response to malformed frame: %v", err)
	}
	res, err := serve.UnmarshalResponse(frame)
	if err != nil {
		t.Fatalf("unparseable error response: %v", err)
	}
	if res.Err == nil {
		t.Fatal("malformed frame was acknowledged as success")
	}

	// The connection must survive: a valid request still round-trips.
	blk := value.BlockFromI32([]int32{1, 2, 3, 4}, false)
	req, err := serve.MarshalRequest(7, serve.Request{Src: 0, Dst: 1, Block: blk})
	if err != nil {
		t.Fatal(err)
	}
	writeRawFrame(t, conn, req)
	frame, err = readRawFrame(conn)
	if err != nil {
		t.Fatalf("connection dead after malformed frame: %v", err)
	}
	res, err = serve.UnmarshalResponse(frame)
	if err != nil || res.Err != nil {
		t.Fatalf("valid request failed after malformed frame: %v / %v", err, res.Err)
	}
	if res.Tag != 7 || !res.Block.Equal(blk) {
		t.Fatalf("round trip corrupted after malformed frame: tag %d", res.Tag)
	}
}

// TestServerMalformedBodyKeepsID sends a request whose header parses but
// whose body does not (one trailing byte): the error response must carry
// the request's own id, or a pipelined client never completes that call.
func TestServerMalformedBodyKeepsID(t *testing.T) {
	_, addr := startServer(t, serve.Config{Nodes: 4, Scheme: compress.Baseline, Shards: 1})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	req, err := serve.MarshalRequest(42, serve.Request{Src: 0, Dst: 1, Block: value.BlockFromI32([]int32{1, 2}, false)})
	if err != nil {
		t.Fatal(err)
	}
	writeRawFrame(t, conn, append(req, 0xAA))
	frame, err := readRawFrame(conn)
	if err != nil {
		t.Fatalf("no response to a request with trailing bytes: %v", err)
	}
	res, err := serve.UnmarshalResponse(frame)
	if err != nil {
		t.Fatalf("unparseable error response: %v", err)
	}
	if res.Err == nil || res.Tag != 42 {
		t.Fatalf("response tag %d err %v, want an error under the request's id 42", res.Tag, res.Err)
	}
}

// TestServerFrameCap announces a frame above MaxFrameBytes: the server
// must cut the connection without trying to read (or buffer) the body.
func TestServerFrameCap(t *testing.T) {
	_, addr := startServer(t, serve.Config{Nodes: 4, Scheme: compress.Baseline, Shards: 1})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], serve.MaxFrameBytes+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := readRawFrame(conn); err == nil {
		t.Fatal("server answered a frame above the size cap instead of closing")
	}
}

// TestServerMidStreamDrop abandons a connection halfway through a frame;
// the server must shed it and keep serving other clients.
func TestServerMidStreamDrop(t *testing.T) {
	_, addr := startServer(t, serve.Config{Nodes: 4, Scheme: compress.Baseline, Shards: 1})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{1, 2, 3}); err != nil { // 3 of the promised 100 bytes
		t.Fatal(err)
	}
	conn.Close()

	cl, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	blk := value.BlockFromI32([]int32{5, 6, 7, 8}, false)
	out, err := cl.Transfer(0, 1, blk)
	if err != nil {
		t.Fatalf("server stopped serving after a mid-stream drop: %v", err)
	}
	if !out.Equal(blk) {
		t.Fatal("block altered at threshold 0")
	}
}

// TestClientOverloadedPropagation pins the wire mapping of the
// backpressure signal: a server answering statusOverloaded must surface
// as ErrOverloaded from Client.Do, so remote callers can implement the
// same back-off loop as in-process ones.
func TestClientOverloadedPropagation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			frame, err := readRawFrame(conn)
			if err != nil {
				return
			}
			id, _, err := serve.UnmarshalRequest(frame)
			if err != nil {
				return
			}
			resp, err := serve.MarshalResponse(serve.Result{Tag: id, Err: serve.ErrOverloaded})
			if err != nil {
				return
			}
			var hdr [4]byte
			binary.BigEndian.PutUint32(hdr[:], uint32(len(resp)))
			if _, err := conn.Write(hdr[:]); err != nil {
				return
			}
			if _, err := conn.Write(resp); err != nil {
				return
			}
		}
	}()

	cl, err := serve.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	blk := value.BlockFromI32([]int32{1}, false)
	_, err = cl.Do(serve.Request{Src: 0, Dst: 1, Block: blk})
	if !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("overloaded status surfaced as %v, want ErrOverloaded", err)
	}
}

// TestClientRejectsOversizedBlock verifies the wire limit is enforced at
// the client before any bytes hit the network — the old path truncated
// the word count to uint16 and shipped a frame the server rejected as
// trailing garbage.
func TestClientRejectsOversizedBlock(t *testing.T) {
	clientSide, serverSide := net.Pipe()
	defer serverSide.Close()
	cl := serve.NewClient(clientSide)
	defer cl.Close()

	blk := value.NewBlock(serve.MaxBlockWords+1, value.Int32, false)
	done := make(chan error, 1)
	go func() {
		_, err := cl.Do(serve.Request{Src: 0, Dst: 1, Block: blk})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("oversized block accepted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do blocked on the network for an unrepresentable block")
	}

	if _, err := serve.MarshalRequest(1, serve.Request{Block: blk}); err == nil {
		t.Fatal("MarshalRequest accepted an oversized block")
	}
	if _, err := serve.MarshalResponse(serve.Result{Block: blk}); err == nil {
		t.Fatal("MarshalResponse accepted an oversized block")
	}
}
