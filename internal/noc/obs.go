package noc

import (
	"sync/atomic"

	"approxnoc/internal/compress"
	"approxnoc/internal/obs"
	"approxnoc/internal/sim"
)

// netObsState is one published statistics snapshot. The simulation
// thread copies its counters here between cycles; scrape-time collectors
// only ever read the atomically-published copy, so a live /metrics pull
// never touches (or races with) simulator state.
type netObsState struct {
	stats NetStats
	power PowerEvents
	codec compress.OpStats
}

// netObs is the network's observability attachment.
type netObs struct {
	snap  atomic.Pointer[netObsState]
	every sim.Cycle
}

// EnableObs attaches the observability layer: tracer receives the
// per-flit event stream (nil disables tracing), and when reg is non-nil
// the network's statistics are exported as collector-backed metric
// families, republished every `every` cycles (0 means 256). Attaching
// obs never changes simulation results — the determinism tests pin
// obs-on and obs-off runs to bit-identical statistics.
//
// EnableObs must be called before the simulation starts, from the
// goroutine that owns the Network.
func (n *Network) EnableObs(reg *obs.Registry, tracer *obs.Tracer, every int) {
	n.tracer = tracer
	if reg == nil {
		return
	}
	if every <= 0 {
		every = 256
	}
	o := &netObs{every: sim.Cycle(every)}
	o.snap.Store(&netObsState{})
	n.obs = o
	n.publishObs()

	load := func() *netObsState { return o.snap.Load() }
	reg.Collector("noc_cycles_total", "simulation cycles since the network was built",
		obs.TypeCounter, nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(load().stats.Cycles)}}
		})
	reg.Collector("noc_packets_sent_total", "packets entering the network",
		obs.TypeCounter, nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(load().stats.PacketsSent)}}
		})
	reg.Collector("noc_packets_delivered_total", "packets delivered, by packet kind",
		obs.TypeCounter, []string{"kind"}, func() []obs.Sample {
			s := load().stats
			return []obs.Sample{
				{LabelValues: []string{"control"}, Value: float64(s.ControlDelivered)},
				{LabelValues: []string{"data"}, Value: float64(s.DataDelivered)},
				{LabelValues: []string{"notif"}, Value: float64(s.NotifDelivered)},
			}
		})
	reg.Collector("noc_flits_total", "flits crossing the NI boundary, by direction",
		obs.TypeCounter, []string{"dir"}, func() []obs.Sample {
			s := load().stats
			return []obs.Sample{
				{LabelValues: []string{"ejected"}, Value: float64(s.FlitsEjected)},
				{LabelValues: []string{"injected"}, Value: float64(s.FlitsInjected)},
				{LabelValues: []string{"injected_data"}, Value: float64(s.DataFlitsInjected)},
			}
		})
	reg.Collector("noc_packet_latency_cycles", "mean delivered-packet latency, by pipeline stage",
		obs.TypeGauge, []string{"stage"}, func() []obs.Sample {
			s := load().stats
			return []obs.Sample{
				{LabelValues: []string{"decode"}, Value: s.AvgDecodeLatency()},
				{LabelValues: []string{"net"}, Value: s.AvgNetLatency()},
				{LabelValues: []string{"queue"}, Value: s.AvgQueueLatency()},
				{LabelValues: []string{"total"}, Value: s.AvgPacketLatency()},
			}
		})
	reg.Collector("noc_packet_latency_percentile_cycles", "delivered-packet latency percentiles",
		obs.TypeGauge, []string{"pct"}, func() []obs.Sample {
			s := load().stats
			return []obs.Sample{
				{LabelValues: []string{"50"}, Value: s.LatencyPercentile(50)},
				{LabelValues: []string{"99"}, Value: s.LatencyPercentile(99)},
			}
		})
	reg.Collector("noc_power_events_total", "microarchitectural events feeding the power model",
		obs.TypeCounter, []string{"event"}, func() []obs.Sample {
			p := load().power
			return []obs.Sample{
				{LabelValues: []string{"buffer_read"}, Value: float64(p.BufferReads)},
				{LabelValues: []string{"buffer_write"}, Value: float64(p.BufferWrites)},
				{LabelValues: []string{"link_traversal"}, Value: float64(p.LinkTraversals)},
				{LabelValues: []string{"switch_alloc"}, Value: float64(p.SwitchAllocs)},
				{LabelValues: []string{"vc_alloc"}, Value: float64(p.VCAllocs)},
				{LabelValues: []string{"xbar_traversal"}, Value: float64(p.XbarTraversals)},
			}
		})
	compress.RegisterMetrics(reg, "noc", func() compress.OpStats { return load().codec })
}

// PublishObs immediately republishes the statistics snapshot the scrape
// collectors read — called by drivers after a run completes so the final
// numbers are visible without waiting for the next publish interval.
// Like every Network method it must be called from the owning goroutine.
func (n *Network) PublishObs() { n.publishObs() }

// publishObs copies the current statistics into the atomic snapshot the
// scrape collectors read. Called from the simulation thread only.
func (n *Network) publishObs() {
	if n.obs == nil {
		return
	}
	n.obs.snap.Store(&netObsState{
		stats: n.Stats(),
		power: n.power,
		codec: n.CodecStats(),
	})
}

// trace records one event with the current cycle stamped in. The nil
// check keeps the disabled hot path to a single branch.
func (n *Network) trace(kind obs.EventKind, node int, a, b uint64) {
	if n.tracer == nil {
		return
	}
	n.tracer.Record(obs.Event{
		Cycle: uint64(n.clock.Now()),
		Kind:  kind,
		Node:  int32(node),
		A:     a,
		B:     b,
	})
}
