package serve

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"approxnoc/internal/compress"
	"approxnoc/internal/value"
)

// TestClientDoRecyclesCallsUnderFailure runs 32 goroutines through Do on
// one client, each with its own tags and blocks, and closes the server
// mid-run. Do recycles its calls, so a call delivered twice, or pooled
// while still pending, would hand one caller another's result, a stale
// one or none: every Do must return either a transport error or its own
// block, bit for bit, under its own tag. check.sh runs it under -race.
func TestClientDoRecyclesCallsUnderFailure(t *testing.T) {
	const workers, nodes = 32, 4
	gw, err := New(Config{Nodes: nodes, Scheme: compress.Baseline, ThresholdPct: 0, Shards: 2, QueueDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	srv := NewServer(gw)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The worker whose round trip reaches closeAt closes the server while
	// the other 31 have calls in flight.
	var served atomic.Int64
	const closeAt = workers * 20

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				tag := uint64(w)<<32 | uint64(i)
				blk := value.NewBlock(16, value.Int32, false)
				for k := range blk.Words {
					blk.Words[k] = uint32(w)<<24 | uint32(i)<<8 | uint32(k)
				}
				res, err := cl.Do(Request{Src: w % nodes, Dst: (w + 1) % nodes, Block: blk, ThresholdPct: DefaultThreshold, Tag: tag})
				if err != nil {
					if !errors.Is(err, ErrTransport) {
						errs <- err
					}
					return
				}
				if res.Tag != tag || res.Block == nil || !res.Block.Equal(blk) {
					errs <- errors.New("a Do returned another call's result")
					return
				}
				if served.Add(1) == closeAt {
					srv.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := served.Load(); n < closeAt {
		t.Fatalf("%d round trips before the close, want at least %d", n, closeAt)
	}
}
