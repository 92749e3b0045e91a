package noc

import "math"

// PowerEvents counts the microarchitectural events the power model converts
// into dynamic energy.
type PowerEvents struct {
	BufferWrites   uint64
	BufferReads    uint64
	XbarTraversals uint64
	LinkTraversals uint64
	VCAllocs       uint64
	SwitchAllocs   uint64
}

// Add accumulates other into e.
func (e *PowerEvents) Add(o PowerEvents) {
	e.BufferWrites += o.BufferWrites
	e.BufferReads += o.BufferReads
	e.XbarTraversals += o.XbarTraversals
	e.LinkTraversals += o.LinkTraversals
	e.VCAllocs += o.VCAllocs
	e.SwitchAllocs += o.SwitchAllocs
}

// latencyBins is the histogram resolution for packet latencies: bin i
// covers [i*latencyBinWidth, (i+1)*latencyBinWidth), with the last bin
// absorbing everything beyond.
const (
	latencyBins     = 64
	latencyBinWidth = 8 // cycles per bin: covers 0..512 before clamping
)

// NetStats aggregates network-level results for the figures.
type NetStats struct {
	Cycles uint64

	PacketsSent      uint64
	PacketsDelivered uint64

	DataDelivered    uint64
	ControlDelivered uint64
	NotifDelivered   uint64

	FlitsInjected     uint64
	DataFlitsInjected uint64
	FlitsEjected      uint64

	SumQueueLat  float64
	SumNetLat    float64
	SumDecodeLat float64

	// LatencyHist buckets total packet latency for percentile reporting.
	LatencyHist [latencyBins]uint64
	maxLatency  uint64 // the largest total packet latency delivered
}

// AvgQueueLatency is the mean NI queueing (plus unhidden compression)
// latency per delivered packet.
func (s NetStats) AvgQueueLatency() float64 { return s.avg(s.SumQueueLat) }

// AvgNetLatency is the mean in-network latency per delivered packet.
func (s NetStats) AvgNetLatency() float64 { return s.avg(s.SumNetLat) }

// AvgDecodeLatency is the mean decompression latency per delivered packet.
func (s NetStats) AvgDecodeLatency() float64 { return s.avg(s.SumDecodeLat) }

// AvgPacketLatency is the mean end-to-end packet latency.
func (s NetStats) AvgPacketLatency() float64 {
	return s.avg(s.SumQueueLat + s.SumNetLat + s.SumDecodeLat)
}

func (s NetStats) avg(sum float64) float64 {
	if s.PacketsDelivered == 0 {
		return 0
	}
	return sum / float64(s.PacketsDelivered)
}

// Throughput is delivered flits per cycle per tile.
func (s NetStats) Throughput(tiles int) float64 {
	if s.Cycles == 0 || tiles == 0 {
		return 0
	}
	return float64(s.FlitsEjected) / float64(s.Cycles) / float64(tiles)
}

func (s *NetStats) recordDelivery(p *Packet) {
	s.PacketsDelivered++
	switch p.Kind {
	case DataPacket:
		s.DataDelivered++
	case ControlPacket:
		s.ControlDelivered++
	case NotifPacket:
		s.NotifDelivered++
	}
	s.SumQueueLat += float64(p.QueueLatency())
	s.SumNetLat += float64(p.NetLatency())
	s.SumDecodeLat += float64(p.DecodeLatency())
	lat := uint64(p.TotalLatency())
	s.maxLatency = max(s.maxLatency, lat)
	bin := int(lat / latencyBinWidth)
	if bin >= latencyBins {
		bin = latencyBins - 1
	}
	s.LatencyHist[bin]++
}

// LatencyPercentile returns an upper bound on the given percentile
// (0 < pct <= 100) of total packet latency at the nearest rank ⌈pct·n/100⌉
// of n deliveries, multiplied first so p99 of 100 is rank 99, and at least
// 1: the end of its histogram bin, or the largest latency delivered when
// it lands in the last bin, which is unbounded. A NetStats without that
// maximum (one rebuilt from its exported fields) reports the histogram's
// span there, never less.
func (s NetStats) LatencyPercentile(pct float64) float64 {
	if s.PacketsDelivered == 0 || pct <= 0 {
		return 0
	}
	target := max(uint64(math.Ceil(pct*float64(s.PacketsDelivered)/100)), 1)
	var seen uint64
	for i, c := range s.LatencyHist {
		seen += c
		if seen >= target && i < latencyBins-1 {
			return float64((i + 1) * latencyBinWidth)
		}
	}
	return max(float64(s.maxLatency), latencyBins*latencyBinWidth)
}
