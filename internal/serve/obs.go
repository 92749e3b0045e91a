package serve

import (
	"strconv"

	"approxnoc/internal/compress"
	"approxnoc/internal/obs"
	"approxnoc/internal/stats"
)

// RegisterMetrics exports the gateway's live state on reg as
// collector-backed families: per-shard request counters, queue depths,
// service-latency quantiles, payload accounting, and the aggregated
// codec statistics. Every collector reads the shard atomics (or the
// channel length), so scraping is safe at any moment under full load
// and never blocks a shard worker.
//
// The family names are part of the golden-pinned exposition contract;
// see DESIGN.md §8 for the naming scheme.
func (g *Gateway) RegisterMetrics(reg *obs.Registry) {
	label := func(sh *shard) []string { return []string{strconv.Itoa(sh.id)} }
	counter := func(name, help string, read func(*shard) uint64) {
		reg.Collector(name, help, obs.TypeCounter, []string{"shard"}, func() []obs.Sample {
			out := make([]obs.Sample, len(g.shards))
			for i, sh := range g.shards {
				out[i] = obs.Sample{LabelValues: label(sh), Value: float64(read(sh))}
			}
			return out
		})
	}
	counter("serve_accepted_total", "requests admitted to a shard queue",
		func(sh *shard) uint64 { return sh.accepted.Load() })
	counter("serve_rejected_total", "requests turned away with ErrOverloaded",
		func(sh *shard) uint64 { return sh.rejected.Load() })
	counter("serve_processed_total", "requests completed by shard workers",
		func(sh *shard) uint64 { return sh.processed.Load() })
	counter("serve_batches_total", "worker dispatches",
		func(sh *shard) uint64 { return sh.batches.Load() })
	counter("serve_coalesced_total", "requests sharing a dispatch with another",
		func(sh *shard) uint64 { return sh.coalesced.Load() })
	counter("serve_dropped_replies_total", "results discarded for lack of a reply slot",
		func(sh *shard) uint64 { return sh.dropped.Load() })
	counter("serve_bits_in_total", "uncompressed payload bits",
		func(sh *shard) uint64 { return sh.bitsIn.Load() })
	counter("serve_bits_out_total", "encoded payload bits",
		func(sh *shard) uint64 { return sh.bitsOut.Load() })
	if g.qosCtl != nil {
		counter("qos_shed_total", "approximatable requests refused early by the shed watermark",
			func(sh *shard) uint64 { return sh.shed.Load() })
		counter("qos_budget_refused_total", "requests refused with ErrBudgetExhausted",
			func(sh *shard) uint64 { return sh.budgetRej.Load() })
		g.qosCtl.RegisterMetrics(reg)
	}
	if g.ledger != nil {
		g.ledger.RegisterMetrics(reg)
	}

	reg.Collector("serve_queue_depth", "requests waiting in each shard queue",
		obs.TypeGauge, []string{"shard"}, func() []obs.Sample {
			out := make([]obs.Sample, len(g.shards))
			for i, sh := range g.shards {
				out[i] = obs.Sample{LabelValues: label(sh), Value: float64(len(sh.queue))}
			}
			return out
		})
	reg.GaugeFunc("serve_queue_capacity", "per-shard queue bound (QueueDepth)",
		func() float64 { return float64(g.cfg.QueueDepth) })
	reg.GaugeFunc("serve_shards", "shard worker count",
		func() float64 { return float64(len(g.shards)) })

	reg.Collector("serve_latency_ns", "enqueue-to-completion service latency",
		obs.TypeHistogram, []string{"shard"}, func() []obs.Sample {
			out := make([]obs.Sample, 0, 3*(len(g.shards)+1))
			var merged stats.LatencySnapshot
			for _, sh := range g.shards {
				snap := sh.lat.Snapshot()
				merged.Add(snap)
				out = append(out, obs.HistogramSamples(label(sh), snap)...)
			}
			return append(out, obs.HistogramSamples([]string{"all"}, merged)...)
		})

	compress.RegisterMetrics(reg, "serve", g.CodecStats)
}

// RegisterMetrics exports the TCP server's wire-path state on reg:
// connection and pipeline-depth gauges plus the batched-write counters.
// Like the gateway families, every collector reads atomics, so scraping
// never touches a connection goroutine. Family names follow the same
// golden-pinned scheme (DESIGN.md §8) under the serve_wire_ prefix.
func (s *Server) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("serve_wire_conns", "live TCP connections",
		func() float64 { return float64(s.wire.conns.Load()) })
	reg.GaugeFunc("serve_wire_inflight", "pipelined requests in flight across all connections",
		func() float64 { return float64(s.wire.inflight.Load()) })
	reg.GaugeFunc("serve_wire_max_inflight", "per-connection pipeline bound",
		func() float64 {
			if s.maxInflight > 0 {
				return float64(s.maxInflight)
			}
			return float64(defaultMaxInflight)
		})
	counter := func(name, help string, read func() uint64) {
		reg.Collector(name, help, obs.TypeCounter, nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(read())}}
		})
	}
	counter("serve_wire_read_frames_total", "request frames decoded",
		func() uint64 { return s.wire.readFrames.Load() })
	counter("serve_wire_write_batches_total", "coalesced response writes (one conn.Write each)",
		func() uint64 { return s.wire.writeBatches.Load() })
	counter("serve_wire_write_frames_total", "response frames carried by write batches",
		func() uint64 { return s.wire.writeFrames.Load() })
	counter("serve_wire_write_bytes_total", "response bytes put on the wire",
		func() uint64 { return s.wire.writeBytes.Load() })
}
