package serve_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"approxnoc"
	"approxnoc/internal/compress"
	"approxnoc/internal/serve"
	"approxnoc/internal/sim"
	"approxnoc/internal/value"
	"approxnoc/internal/workload"
)

// testBlocks generates a deterministic block stream from a benchmark
// model.
func testBlocks(t testing.TB, bench string, n int, seed uint64) []*value.Block {
	t.Helper()
	m, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	src := m.NewSource(seed, 0.75)
	blocks := make([]*value.Block, n)
	for i := range blocks {
		blocks[i] = src.NextBlock()
	}
	return blocks
}

// doRetry performs a Do, retrying on backpressure.
func doRetry(t testing.TB, tr serve.Transferer, req serve.Request) serve.Result {
	t.Helper()
	for {
		res, err := tr.Do(req)
		if errors.Is(err, serve.ErrOverloaded) {
			runtime.Gosched()
			continue
		}
		if err != nil {
			t.Fatalf("Do(%d->%d): %v", req.Src, req.Dst, err)
		}
		return res
	}
}

// TestGatewayThresholdZeroBitIdentical checks the acceptance criterion:
// for every scheme, gateway results at threshold 0 are bit-identical to
// the serial Channel.Transfer path (and, since threshold 0 forbids
// approximation, to the original blocks).
func TestGatewayThresholdZeroBitIdentical(t *testing.T) {
	const nodes = 8
	blocks := testBlocks(t, "ssca2", 300, 11)
	for _, scheme := range compress.ExtendedSchemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			gw, err := serve.New(serve.Config{
				Nodes: nodes, Scheme: scheme, ThresholdPct: 0, Shards: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer gw.Close()
			ch, err := approxnoc.NewChannel(nodes, scheme, 0)
			if err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRand(5)
			for i, blk := range blocks {
				src := rng.Intn(nodes)
				dst := (src + 1 + rng.Intn(nodes-1)) % nodes
				want := ch.Transfer(src, dst, blk.Clone())
				res := doRetry(t, gw, serve.Request{
					Src: src, Dst: dst, Block: blk, ThresholdPct: serve.DefaultThreshold,
				})
				if !res.Block.Equal(want) {
					t.Fatalf("block %d (%d->%d): gateway result diverges from serial channel", i, src, dst)
				}
				if !res.Block.Equal(blk) {
					t.Fatalf("block %d: threshold 0 altered data", i)
				}
			}
		})
	}
}

// TestGatewayStress is the acceptance stress test: >100 concurrent
// clients over >=4 shards, run under -race by make check. Non-approximable
// blocks must come back untouched and every VAXX word error must respect
// the threshold.
func TestGatewayStress(t *testing.T) {
	cfg := serve.Config{
		Nodes: 32, Scheme: compress.DIVaxx, ThresholdPct: 10,
		Shards: 4, QueueDepth: 512, MaxBatch: 8,
	}
	const clients = 128
	perClient := 40
	if testing.Short() {
		perClient = 10
	}
	gw, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	clientBlocks := make([][]*value.Block, clients)
	for c := range clientBlocks {
		clientBlocks[c] = testBlocks(t, "blackscholes", 16, uint64(c))
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := sim.NewRand(uint64(c) + 100)
			blocks := clientBlocks[c]
			for i := 0; i < perClient; i++ {
				blk := blocks[i%len(blocks)]
				src := rng.Intn(cfg.Nodes)
				dst := (src + 1 + rng.Intn(cfg.Nodes-1)) % cfg.Nodes
				var res serve.Result
				for {
					var err error
					res, err = gw.Do(serve.Request{
						Src: src, Dst: dst, Block: blk, ThresholdPct: serve.DefaultThreshold,
					})
					if errors.Is(err, serve.ErrOverloaded) {
						runtime.Gosched()
						continue
					}
					if err != nil {
						errs <- fmt.Errorf("client %d: %v", c, err)
						return
					}
					break
				}
				if len(res.Block.Words) != len(blk.Words) {
					errs <- fmt.Errorf("client %d: got %d words, want %d", c, len(res.Block.Words), len(blk.Words))
					return
				}
				if !blk.Approximable && !res.Block.Equal(blk) {
					errs <- fmt.Errorf("client %d: non-approximable block altered", c)
					return
				}
				thr := float64(cfg.ThresholdPct) / 100
				for w := range blk.Words {
					if e := value.RelError(blk.Words[w], res.Block.Words[w], blk.DType); e > thr+1e-9 {
						errs <- fmt.Errorf("client %d: word %d rel error %.4f exceeds threshold %.2f", c, w, e, thr)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := gw.Metrics()
	want := uint64(clients * perClient)
	if m.Processed < want {
		t.Errorf("processed %d < %d issued (accepted %d, rejected %d)", m.Processed, want, m.Accepted, m.Rejected)
	}
	if m.Accepted != m.Processed {
		t.Errorf("accepted %d != processed %d after quiescence", m.Accepted, m.Processed)
	}
	if m.DroppedReplies != 0 {
		t.Errorf("%d replies dropped", m.DroppedReplies)
	}
	if m.BitsIn == 0 || m.BitsOut == 0 {
		t.Errorf("no payload accounted: bitsIn %d bitsOut %d", m.BitsIn, m.BitsOut)
	}
	if m.P99 < m.P50 {
		t.Errorf("p99 %v < p50 %v", m.P99, m.P50)
	}
	cs := gw.CodecStats()
	if cs.BlocksIn != want {
		t.Errorf("codec stats saw %d blocks, want %d", cs.BlocksIn, want)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Do(serve.Request{Src: 0, Dst: 1, Block: testBlocks(t, "ssca2", 1, 1)[0]}); !errors.Is(err, serve.ErrClosed) {
		t.Errorf("Do after Close: got %v, want ErrClosed", err)
	}
}

// TestGatewayThresholdOverride exercises per-request thresholds: an
// FP-VAXX gateway at threshold 0 approximates only when the request
// raises the threshold, and non-adjustable schemes reject overrides.
func TestGatewayThresholdOverride(t *testing.T) {
	gw, err := serve.New(serve.Config{Nodes: 4, Scheme: compress.FPVaxx, ThresholdPct: 0, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	blk := value.BlockFromI32([]int32{1000, 1001, 1002, 1003, 1000, 999, 1001, 1000,
		1002, 1000, 1001, 1003, 999, 1000, 1002, 1001}, true)
	res, err := gw.Do(serve.Request{Src: 0, Dst: 1, Block: blk, ThresholdPct: serve.DefaultThreshold})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Block.Equal(blk) {
		t.Fatal("threshold 0 altered data")
	}
	// Raising the threshold per-request must take effect (more compression
	// than the exact pass) and stay within the requested bound.
	res20, err := gw.Do(serve.Request{Src: 0, Dst: 1, Block: blk, ThresholdPct: 20})
	if err != nil {
		t.Fatal(err)
	}
	for w := range blk.Words {
		if e := value.RelError(blk.Words[w], res20.Block.Words[w], blk.DType); e > 0.20+1e-9 {
			t.Fatalf("word %d rel error %.4f exceeds 20%%", w, e)
		}
	}
	if res20.BitsOut > res.BitsOut {
		t.Errorf("threshold 20 encoded %d bits > threshold 0's %d", res20.BitsOut, res.BitsOut)
	}
	// An out-of-range override propagates the codec's error.
	if _, err := gw.Do(serve.Request{Src: 0, Dst: 1, Block: blk, ThresholdPct: 500}); err == nil {
		t.Error("threshold 500 accepted")
	}
	// Back to the default: must be exact again.
	resBack, err := gw.Do(serve.Request{Src: 0, Dst: 1, Block: blk, ThresholdPct: serve.DefaultThreshold})
	if err != nil {
		t.Fatal(err)
	}
	if !resBack.Block.Equal(blk) {
		t.Fatal("default threshold not restored after override")
	}

	// DI-COMP has no run-time threshold knob: overrides are rejected,
	// matching the default is a no-op.
	di, err := serve.New(serve.Config{Nodes: 4, Scheme: compress.DIComp, ThresholdPct: 0, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	if _, err := di.Do(serve.Request{Src: 0, Dst: 1, Block: blk, ThresholdPct: 5}); !errors.Is(err, serve.ErrThreshold) {
		t.Errorf("DI-COMP override: got %v, want ErrThreshold", err)
	}
	if _, err := di.Do(serve.Request{Src: 0, Dst: 1, Block: blk, ThresholdPct: 0}); err != nil {
		t.Errorf("DI-COMP default-matching threshold rejected: %v", err)
	}

	// The zero value means "configured default", never an override: a
	// literal Request{Src, Dst, Block} on a nonzero-threshold gateway must
	// work even when the scheme cannot adjust thresholds at run time.
	dv, err := serve.New(serve.Config{Nodes: 4, Scheme: compress.DIVaxx, ThresholdPct: 5, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dv.Close()
	if _, err := dv.Do(serve.Request{Src: 0, Dst: 1, Block: blk}); err != nil {
		t.Errorf("zero-value ThresholdPct treated as override: %v", err)
	}
	// Forcing exact operation, by contrast, is a real override there.
	if _, err := dv.Do(serve.Request{Src: 0, Dst: 1, Block: blk, ThresholdPct: serve.ThresholdExact}); !errors.Is(err, serve.ErrThreshold) {
		t.Errorf("DI-VAXX ThresholdExact: got %v, want ErrThreshold", err)
	}
}

// TestGatewayValidation rejects malformed requests and configurations.
func TestGatewayValidation(t *testing.T) {
	if _, err := serve.New(serve.Config{Nodes: 0, Scheme: compress.Baseline}); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := serve.New(serve.Config{Nodes: 4, Scheme: compress.Scheme(99)}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := serve.New(serve.Config{Nodes: 4, Scheme: compress.Baseline, Shards: -1}); err == nil {
		t.Error("negative shards accepted")
	}
	gw, err := serve.New(serve.Config{Nodes: 4, Scheme: compress.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	blk := testBlocks(t, "ssca2", 1, 1)[0]
	if _, err := gw.Do(serve.Request{Src: 0, Dst: 9, Block: blk}); err == nil {
		t.Error("out-of-range dst accepted")
	}
	if _, err := gw.Do(serve.Request{Src: -1, Dst: 1, Block: blk}); err == nil {
		t.Error("negative src accepted")
	}
	if _, err := gw.Do(serve.Request{Src: 0, Dst: 1}); err == nil {
		t.Error("nil block accepted")
	}
}

// TestGatewayAdaptive smoke-tests the adaptive wrapper inside the pool.
func TestGatewayAdaptive(t *testing.T) {
	gw, err := serve.New(serve.Config{
		Nodes: 8, Scheme: compress.FPVaxx, ThresholdPct: 10, Shards: 2, Adaptive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	for i, blk := range testBlocks(t, "x264", 64, 3) {
		res := doRetry(t, gw, serve.Request{Src: i % 8, Dst: (i + 3) % 8, Block: blk, ThresholdPct: serve.DefaultThreshold})
		if len(res.Block.Words) != len(blk.Words) {
			t.Fatalf("block %d: word count changed", i)
		}
	}
	if cs := gw.CodecStats(); cs.BlocksIn != 64 {
		t.Errorf("adaptive gateway saw %d blocks, want 64", cs.BlocksIn)
	}
}

// TestGatewayMetricsBatching drives enough one-shot traffic through a
// single shard to observe coalescing.
func TestGatewayMetricsBatching(t *testing.T) {
	gw, err := serve.New(serve.Config{
		Nodes: 4, Scheme: compress.FPComp, Shards: 1, QueueDepth: 128, MaxBatch: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	blocks := testBlocks(t, "ssca2", 64, 9)
	replies := make(chan serve.Result, len(blocks))
	submitted := 0
	for i, blk := range blocks {
		err := gw.Submit(serve.Request{Src: i % 4, Dst: (i + 1) % 4, Block: blk, Tag: uint64(i), ThresholdPct: serve.DefaultThreshold}, replies)
		if errors.Is(err, serve.ErrOverloaded) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		submitted++
	}
	for i := 0; i < submitted; i++ {
		res := <-replies
		if res.Err != nil {
			t.Fatalf("reply %d: %v", res.Tag, res.Err)
		}
	}
	m := gw.Metrics()
	if m.Processed != uint64(submitted) {
		t.Fatalf("processed %d, want %d", m.Processed, submitted)
	}
	if m.Batches == 0 || m.Batches > m.Processed {
		t.Errorf("implausible batch count %d for %d requests", m.Batches, m.Processed)
	}
	if len(m.Shards) != 1 {
		t.Fatalf("want 1 shard, got %d", len(m.Shards))
	}
	if m.CompressionRatio() <= 0 {
		t.Errorf("compression ratio %.3f", m.CompressionRatio())
	}
}
