package serve_test

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"

	"approxnoc/internal/compress"
	"approxnoc/internal/serve"
	"approxnoc/internal/sim"
	"approxnoc/internal/value"
)

// startServer brings up a gateway and TCP server on a loopback port and
// returns the dial address.
func startServer(t *testing.T, cfg serve.Config) (*serve.Gateway, string) {
	t.Helper()
	gw, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(gw)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-errCh; err != nil {
			t.Errorf("serve: %v", err)
		}
		gw.Close()
	})
	return gw, addr
}

// TestServerRoundTrip moves blocks over TCP and checks bit-identity at
// threshold 0 plus the payload accounting.
func TestServerRoundTrip(t *testing.T) {
	_, addr := startServer(t, serve.Config{Nodes: 8, Scheme: compress.DIVaxx, ThresholdPct: 0, Shards: 4})
	cl, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i, blk := range testBlocks(t, "ssca2", 100, 21) {
		res, err := cl.Do(serve.Request{Src: i % 8, Dst: (i + 1) % 8, Block: blk, ThresholdPct: serve.DefaultThreshold, Tag: uint64(i)})
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if res.Tag != uint64(i) {
			t.Fatalf("block %d: tag %d echoed", i, res.Tag)
		}
		if !res.Block.Equal(blk) {
			t.Fatalf("block %d altered at threshold 0", i)
		}
		if res.BitsIn != 32*len(blk.Words) || res.BitsOut <= 0 {
			t.Fatalf("block %d: accounting bitsIn %d bitsOut %d", i, res.BitsIn, res.BitsOut)
		}
	}

	out, err := cl.Transfer(0, 1, testBlocks(t, "ssca2", 1, 2)[0])
	if err != nil || out == nil {
		t.Fatalf("Transfer: %v", err)
	}
}

// TestServerConcurrentClients is the TCP half of the stress criterion:
// >100 clients, each its own connection, all pipelining into a >=4-shard
// gateway; run under -race by make check.
func TestServerConcurrentClients(t *testing.T) {
	const clients = 104
	perClient := 20
	if testing.Short() {
		perClient = 5
	}
	gw, addr := startServer(t, serve.Config{
		Nodes: 16, Scheme: compress.DIVaxx, ThresholdPct: 0,
		Shards: 4, QueueDepth: 1024,
	})
	clientBlocks := make([][]*value.Block, clients)
	for c := range clientBlocks {
		clientBlocks[c] = testBlocks(t, "ssca2", 8, uint64(c)+1)
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := serve.Dial(addr)
			if err != nil {
				errs <- fmt.Errorf("client %d dial: %v", c, err)
				return
			}
			defer cl.Close()
			rng := sim.NewRand(uint64(c))
			for i := 0; i < perClient; i++ {
				blk := clientBlocks[c][i%len(clientBlocks[c])]
				src := rng.Intn(16)
				dst := (src + 1 + rng.Intn(15)) % 16
				for {
					res, err := cl.Do(serve.Request{Src: src, Dst: dst, Block: blk, ThresholdPct: serve.DefaultThreshold})
					if errors.Is(err, serve.ErrOverloaded) {
						runtime.Gosched()
						continue
					}
					if err != nil {
						errs <- fmt.Errorf("client %d: %v", c, err)
						return
					}
					if !res.Block.Equal(blk) {
						errs <- fmt.Errorf("client %d: block altered at threshold 0", c)
					}
					break
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if m := gw.Metrics(); m.Processed < uint64(clients*perClient) {
		t.Errorf("processed %d < %d issued", m.Processed, clients*perClient)
	}
}

// TestServerReportsBadRequests checks that validation errors surface to
// the remote caller instead of killing the connection.
func TestServerReportsBadRequests(t *testing.T) {
	_, addr := startServer(t, serve.Config{Nodes: 4, Scheme: compress.Baseline, Shards: 1})
	cl, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	blk := testBlocks(t, "ssca2", 1, 3)[0]
	if _, err := cl.Do(serve.Request{Src: 0, Dst: 99, Block: blk}); err == nil {
		t.Error("out-of-range dst accepted over TCP")
	}
	// The connection must still be usable afterwards.
	if _, err := cl.Transfer(0, 1, blk); err != nil {
		t.Errorf("connection dead after bad request: %v", err)
	}
}

// TestClientFailsAfterServerClose verifies in-flight and later calls
// error out once the transport goes away.
func TestClientFailsAfterServerClose(t *testing.T) {
	gw, err := serve.New(serve.Config{Nodes: 4, Scheme: compress.Baseline, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	srv := serve.NewServer(gw)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	cl, err := serve.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	blk := testBlocks(t, "ssca2", 1, 4)[0]
	if _, err := cl.Transfer(0, 1, blk); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Transfer(0, 1, blk); err == nil {
		t.Error("transfer succeeded after server close")
	}
}
