package obs

import (
	"testing"
	"time"

	"approxnoc/internal/stats"
)

// BenchmarkTracerRecordDisabled is the cost a call site pays when
// tracing is off: one nil check. The instrumentation-overhead criterion
// (≤5% on the simulator hot path) rides on this staying trivial.
func BenchmarkTracerRecordDisabled(b *testing.B) {
	var tr *Tracer
	for i := 0; i < b.N; i++ {
		tr.Record(Event{Cycle: uint64(i)})
	}
}

func BenchmarkTracerRecordEnabled(b *testing.B) {
	tr := NewTracer(8, 4096)
	for i := 0; i < b.N; i++ {
		tr.Record(Event{Cycle: uint64(i), Node: int32(i)})
	}
}

func BenchmarkWriteText(b *testing.B) {
	reg := NewRegistry()
	reg.Collector("words_total", "words", TypeCounter, []string{"kind"}, func() []Sample {
		return []Sample{
			{LabelValues: []string{"approx"}, Value: 1000},
			{LabelValues: []string{"exact"}, Value: 1000},
			{LabelValues: []string{"raw"}, Value: 1000},
		}
	})
	var lat stats.LatencyHist
	lat.Observe(time.Microsecond)
	reg.Collector("lat_ns", "latency", TypeHistogram, nil, func() []Sample {
		return HistogramSamples(nil, lat.Snapshot())
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.WriteText(discard{})
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
