package obs

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"approxnoc/internal/stats"
)

// TestConcurrentUse is the race-detector contract: 96 writer goroutines
// move owner-side atomics (a counter, a float gauge, a latency
// histogram, a labeled counter set) and the tracer while 16 readers
// scrape them through collectors (Snapshot, WriteText) and walk the
// trace rings. `make check` runs it under -race; any unsynchronized
// access on the pull path fails the build.
func TestConcurrentUse(t *testing.T) {
	reg := NewRegistry()
	var (
		ops    atomic.Uint64
		level  atomic.Uint64 // float64 bits
		lat    stats.LatencyHist
		byKind [8]atomic.Uint64
	)
	pullCounter(reg, "ops_total", "", &ops)
	reg.GaugeFunc("level", "", func() float64 { return math.Float64frombits(level.Load()) })
	reg.Collector("lat_ns", "", TypeHistogram, nil, func() []Sample {
		return HistogramSamples(nil, lat.Snapshot())
	})
	reg.Collector("by_kind_total", "", TypeCounter, []string{"kind"}, func() []Sample {
		out := make([]Sample, len(byKind))
		for k := range byKind {
			out[k] = Sample{LabelValues: []string{fmt.Sprintf("k%d", k)}, Value: float64(byKind[k].Load())}
		}
		return out
	})
	tr := NewTracer(4, 64)
	tr.RegisterMetrics(reg)

	const writers, readers, iters = 96, 16, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ops.Add(1)
				level.Store(math.Float64bits(float64(i) / 2))
				lat.Observe(time.Duration(i) * time.Nanosecond)
				byKind[w%8].Add(1)
				tr.Record(Event{Cycle: uint64(i), Kind: EvCompress, Node: int32(w)})
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters/4; i++ {
				switch r % 4 {
				case 0:
					reg.Snapshot()
				case 1:
					reg.WriteText(io.Discard)
				case 2:
					tr.Snapshot()
					tr.Len()
				default:
					if i%16 == 0 {
						tr.Reset()
					}
				}
			}
		}(r)
	}
	wg.Wait()

	// A scrape never drops: with the writers quiesced the exposition must
	// account for every write exactly.
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("post-race exposition does not parse: %v", err)
	}
	if got := exp.Values["ops_total"]; got != writers*iters {
		t.Fatalf("counter = %g, want %d", got, writers*iters)
	}
	if got := exp.Values["lat_ns_count"]; got != writers*iters {
		t.Fatalf("histogram count = %g, want %d", got, writers*iters)
	}
	var sum float64
	for k := range byKind {
		sum += exp.Values[fmt.Sprintf(`by_kind_total{kind="k%d"}`, k)]
	}
	if sum != writers*iters {
		t.Fatalf("labeled counters sum to %g, want %d", sum, writers*iters)
	}
}

// TestTracerLossAccounting pins the tracer's bookkeeping invariant under
// contention: every Record is either retained, evicted, or dropped —
// none vanish without being counted.
func TestTracerLossAccounting(t *testing.T) {
	tr := NewTracer(2, 32)
	const writers, iters = 64, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tr.Record(Event{Cycle: uint64(i), Node: int32(w)})
			}
		}(w)
	}
	wg.Wait()
	total := uint64(writers * iters)
	accounted := uint64(tr.Len()) + tr.Evicted() + tr.Dropped()
	if accounted != total {
		t.Fatalf("retained(%d) + evicted(%d) + dropped(%d) = %d, want %d recorded events",
			tr.Len(), tr.Evicted(), tr.Dropped(), accounted, total)
	}
}
