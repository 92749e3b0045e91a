package stats

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// latencyBuckets is one bucket per power-of-two nanosecond range, enough
// to cover any int64 duration.
const latencyBuckets = 64

// LatencyHist is a lock-free log2-bucketed histogram of durations: bucket
// i counts durations whose nanosecond count has bit length i, so bucket
// boundaries grow geometrically from 1 ns. Observe is a single atomic
// increment, which makes the histogram safe for concurrent use from any
// number of goroutines — it is the service-latency collector of the
// gateway's shard workers.
type LatencyHist struct {
	counts [latencyBuckets]atomic.Uint64
}

// Observe folds one duration in. Negative durations count as zero.
func (h *LatencyHist) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.counts[bits.Len64(uint64(ns))].Add(1)
}

// Snapshot returns a weakly-consistent copy of the bucket counts — the
// histogram's one read path: counts and quantiles are taken from the
// copy, after merging per-shard copies with Add where wanted.
func (h *LatencyHist) Snapshot() LatencySnapshot {
	var s LatencySnapshot
	for i := range h.counts {
		s[i] = h.counts[i].Load()
	}
	return s
}

// LatencySnapshot is a point-in-time copy of a LatencyHist's buckets.
type LatencySnapshot [latencyBuckets]uint64

// Add accumulates another snapshot into s.
func (s *LatencySnapshot) Add(o LatencySnapshot) {
	for i := range s {
		s[i] += o[i]
	}
}

// Count returns the number of observations in the snapshot.
func (s *LatencySnapshot) Count() uint64 {
	var n uint64
	for _, c := range s {
		n += c
	}
	return n
}

// Quantile returns an upper-bound estimate of the q-quantile: the
// inclusive upper edge (2^i - 1 ns) of the bucket holding the rank-q
// observation. Zero observations yield 0; q is clamped to [0, 1].
func (s *LatencySnapshot) Quantile(q float64) time.Duration {
	total := s.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for i, c := range s {
		cum += c
		if cum > rank {
			if i == 0 {
				return 0
			}
			return time.Duration(uint64(1)<<uint(i) - 1)
		}
	}
	return time.Duration(uint64(1)<<63 - 1)
}
