package stats

import (
	"sync"
	"testing"
	"time"
)

func TestLatencyHistEmpty(t *testing.T) {
	var h LatencyHist
	s := h.Snapshot()
	if s.Count() != 0 || s.Quantile(0.5) != 0 {
		t.Errorf("empty hist: count %d p50 %v", s.Count(), s.Quantile(0.5))
	}
}

func TestLatencyHistQuantiles(t *testing.T) {
	var h LatencyHist
	// 90 fast observations (~1us) and 10 slow (~1ms).
	for i := 0; i < 90; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count() != 100 {
		t.Fatalf("count %d, want 100", s.Count())
	}
	p50, p99 := s.Quantile(0.50), s.Quantile(0.99)
	if p50 < time.Microsecond || p50 > 4*time.Microsecond {
		t.Errorf("p50 %v outside the ~1us bucket", p50)
	}
	if p99 < time.Millisecond || p99 > 4*time.Millisecond {
		t.Errorf("p99 %v outside the ~1ms bucket", p99)
	}
	if p99 < p50 {
		t.Errorf("p99 %v < p50 %v", p99, p50)
	}
	// Clamping.
	if s.Quantile(-1) != s.Quantile(0) || s.Quantile(2) != s.Quantile(1) {
		t.Error("quantile arguments not clamped")
	}
	h.Observe(-time.Second) // negative counts as zero
	if s = h.Snapshot(); s.Quantile(0) != 0 {
		t.Errorf("min after negative observation: %v", s.Quantile(0))
	}
}

func TestLatencySnapshotMerge(t *testing.T) {
	var a, b LatencyHist
	a.Observe(time.Microsecond)
	b.Observe(time.Millisecond)
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Add(sb)
	if sa.Count() != 2 {
		t.Fatalf("merged count %d, want 2", sa.Count())
	}
	if q := sa.Quantile(1); q < time.Millisecond {
		t.Errorf("merged max %v lost the slow observation", q)
	}
}

func TestLatencyHistConcurrent(t *testing.T) {
	var h LatencyHist
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(g*i) * time.Nanosecond)
			}
		}(g)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count() != 8000 {
		t.Fatalf("count %d, want 8000", s.Count())
	}
}

func BenchmarkLatencyHistObserve(b *testing.B) {
	var h LatencyHist
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}
