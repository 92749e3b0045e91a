package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"
)

// median returns the middle of vs (mean of the two middles for an even
// count); 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of vs as Python's
// statistics.quantiles(vs, n=4) gives them (exclusive method), so spreads
// printed here match the driver's.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return q(1), q(3)
}

// iqrShare is the inter-quartile distance of vs as a share of its median.
func iqrShare(vs []float64) float64 {
	med := median(vs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return math.Abs(q3-q1) / math.Abs(med)
}

// quantileNs returns the q-quantile of sorted nanosecond samples.
func quantileNs(sorted []int32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// clampNs stores a nanosecond interval as a latency sample.
func clampNs(d int64) int32 {
	if d > math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(d)
}

// memMark is a snapshot of the allocator counters the per-op allocation
// metrics are deltas of.
type memMark struct {
	mallocs, bytes uint64
	gcs            uint32
}

func markMem() memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{mallocs: m.Mallocs, bytes: m.TotalAlloc, gcs: m.NumGC}
}

// since returns the mallocs, bytes and GC cycles accumulated after m by
// the whole process, load generator included.
func (m memMark) since() (mallocs, bytes float64, gcs int) {
	n := markMem()
	return float64(n.mallocs - m.mallocs), float64(n.bytes - m.bytes), int(n.gcs - m.gcs)
}

// timeSetups runs build n times and returns how long each took, in
// seconds; a run reports the median as setup_s.
func timeSetups(n int, build func() error) ([]float64, error) {
	took := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := build(); err != nil {
			return nil, err
		}
		took = append(took, time.Since(start).Seconds())
	}
	return took, nil
}

// repSeries collects the host-speed figures of the timed repetitions of a
// wire or codec run; the run reports the median of each.
type repSeries struct{ perSec, p50, p99, allocs, bytes []float64 }

// add takes one repetition: ops operations in elapsed, their latency
// samples (sorted here), and the process's allocations meanwhile.
func (s *repSeries) add(ops int64, elapsed time.Duration, lat []int32, mallocs, bytes float64) {
	slices.Sort(lat)
	s.perSec = append(s.perSec, float64(ops)/elapsed.Seconds())
	s.p50 = append(s.p50, quantileNs(lat, 0.50)/1e3)
	s.p99 = append(s.p99, quantileNs(lat, 0.99)/1e3)
	s.allocs = append(s.allocs, mallocs/float64(ops))
	s.bytes = append(s.bytes, bytes/float64(ops))
}

// spreads is the diagnostic line: a bound too tight for these spreads is
// cured by longer repetitions, not by a wider bound.
func (s *repSeries) spreads() string {
	return fmt.Sprintf("spread (IQR/median) over %d reps: records_per_s %.2f%%, lat_p50_us %.2f%%, lat_p99_us %.2f%%, allocs_per_op %.2f%%",
		len(s.perSec), 100*iqrShare(s.perSec), 100*iqrShare(s.p50), 100*iqrShare(s.p99), 100*iqrShare(s.allocs))
}

// metrics assembles the end-to-end metrics of a wire or codec run.
func (s *repSeries) metrics(setups []float64, sums *modelSums) map[string]float64 {
	m := sums.metrics()
	m["setup_s"] = median(setups)
	m["records_per_s"] = median(s.perSec)
	m["lat_p50_us"] = median(s.p50)
	m["lat_p99_us"] = median(s.p99)
	m["allocs_per_op"] = median(s.allocs)
	m["alloc_bytes_per_op"] = median(s.bytes)
	m["sim_cycles_per_s"] = median(s.perSec) * m["sim_pkt_latency_cycles"]
	return m
}

// clock is the monotonic timebase of a run: span and latency stamps are
// nanoseconds since the run began.
type clock struct{ base time.Time }

func newClock() clock      { return clock{base: time.Now()} }
func (c clock) now() int64 { return int64(time.Since(c.base)) }
