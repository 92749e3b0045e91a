package serve_test

import (
	"fmt"
	"testing"

	"approxnoc/internal/compress"
	"approxnoc/internal/serve"
)

// BenchmarkGatewayWire is the wire-path throughput family: a live
// loopback gateway driven over TCP across a connections × pipeline-depth
// × payload-size grid. records/sec is the headline metric (one record =
// one request round trip); B/op and allocs/op come from -benchmem — the
// rig is built and warmed outside the timer, so allocs/op is the
// steady-state serve-path cost per request, not amortized setup.
//
// depth=1 is the lock-step pre-pipelining shape kept as the within-run
// baseline; the depth>=8 rows carry the >=3x pipelining speedup
// criterion.
func BenchmarkGatewayWire(b *testing.B) {
	cfg := serve.Config{
		Nodes: 16, Scheme: compress.Baseline, ThresholdPct: 0,
		Shards: 4, QueueDepth: 4096,
	}
	for _, conns := range []int{1, 4} {
		for _, depth := range []int{1, 8, 64} {
			for _, words := range []int{16, 64} {
				name := fmt.Sprintf("conns=%d/depth=%d/words=%d", conns, depth, words)
				b.Run(name, func(b *testing.B) {
					rig, err := serve.NewLoadgenRig(cfg, serve.Loadgen{
						Conns: conns, Depth: depth, Words: words,
					})
					if err != nil {
						b.Fatal(err)
					}
					defer rig.Close()
					// Warm pools, arenas, and bufio buffers so the
					// measured window is pure steady state.
					if _, err := rig.Run(2000); err != nil {
						b.Fatal(err)
					}
					b.SetBytes(int64(4 * words))
					b.ReportAllocs()
					b.ResetTimer()
					res, err := rig.Run(b.N)
					b.StopTimer()
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(res.RecordsPerSec, "records/sec")
					if res.Retries > 0 {
						b.ReportMetric(float64(res.Retries), "retries")
					}
				})
			}
		}
	}
}
