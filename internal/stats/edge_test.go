package stats

import (
	"testing"
	"time"
)

// TestQuantileEdgeCases is table-driven over the degenerate histogram
// shapes the obs layer can present: empty, single-sample, all-zero
// durations, and one-bucket-only distributions.
func TestQuantileEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		observe []time.Duration
		q       float64
		want    time.Duration
	}{
		{"empty p0", nil, 0, 0},
		{"empty p50", nil, 0.5, 0},
		{"empty p100", nil, 1, 0},
		{"single zero", []time.Duration{0}, 0.5, 0},
		{"single sample p0", []time.Duration{100}, 0, 127},
		{"single sample p100", []time.Duration{100}, 1, 127},
		{"all in one bucket", []time.Duration{64, 100, 127}, 0.5, 127},
		{"negative clamps to zero", []time.Duration{-time.Second}, 1, 0},
		{"q below range", []time.Duration{100}, -3, 127},
		{"q above range", []time.Duration{100}, 7, 127},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var h LatencyHist
			for _, d := range tc.observe {
				h.Observe(d)
			}
			snap := h.Snapshot()
			if got := snap.Quantile(tc.q); got != tc.want {
				t.Fatalf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
		})
	}
}

// TestSnapshotMergeEdgeCases covers merging empty and non-empty
// snapshots in both directions — the per-shard aggregation path of the
// gateway's latency exposition.
func TestSnapshotMergeEdgeCases(t *testing.T) {
	var full LatencyHist
	full.Observe(time.Microsecond)
	full.Observe(time.Millisecond)

	t.Run("empty plus nonempty", func(t *testing.T) {
		var acc LatencySnapshot
		acc.Add(full.Snapshot())
		if acc.Count() != 2 || acc.Quantile(1) < time.Millisecond {
			t.Fatalf("count=%d max=%v", acc.Count(), acc.Quantile(1))
		}
	})
	t.Run("nonempty plus empty", func(t *testing.T) {
		acc := full.Snapshot()
		acc.Add(LatencySnapshot{})
		if acc.Count() != 2 || acc.Quantile(1) < time.Millisecond {
			t.Fatalf("count=%d max=%v", acc.Count(), acc.Quantile(1))
		}
	})
	t.Run("empty plus empty", func(t *testing.T) {
		var acc LatencySnapshot
		acc.Add(LatencySnapshot{})
		if acc.Count() != 0 || acc.Quantile(0.5) != 0 {
			t.Fatalf("count=%d p50=%v", acc.Count(), acc.Quantile(0.5))
		}
	})
}
