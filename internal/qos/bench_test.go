package qos

import (
	"fmt"
	"testing"
)

// BenchmarkQoS sweeps the goodput-vs-quality grid: offered load from
// 1x to 6x the baseline service rate, QoS on and off, reporting the
// completed fraction and the mean served threshold (the quality spent
// to get it). The sim is deterministic, so the custom metrics are
// stable across runs.
func BenchmarkQoS(b *testing.B) {
	for _, mult := range []int{1, 2, 4, 6} {
		for _, qosOff := range []bool{false, true} {
			mode := "qos"
			if qosOff {
				mode = "off"
			}
			b.Run(fmt.Sprintf("load=%dx/%s", mult, mode), func(b *testing.B) {
				s := LoadSim{
					Controller: ControllerConfig{StepPct: 5, RaiseAt: 0.5, LowerAt: 0.1},
					QoSOff:     qosOff,
					QueueCap:   2000,
					BaseRate:   100,
					GainPerPct: 0.1,
					Arrivals:   StepTrace(float64(100*mult), float64(100*mult), 0, 200),
				}
				var last LoadSimResult
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := s.Run()
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(last.GoodputFrac, "goodput/offered")
				b.ReportMetric(last.MeanServedPct, "served-threshold-%")
			})
		}
	}
}

// BenchmarkControllerTick measures the raw control step — the cost the
// background sampler pays per interval.
func BenchmarkControllerTick(b *testing.B) {
	ctl, err := NewController(ControllerConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctl.Tick(float64(i%100) / 100)
	}
}

// BenchmarkLedgerSpend measures the per-request budget charge on the
// shard-worker path.
func BenchmarkLedgerSpend(b *testing.B) {
	l, err := NewLedger(map[string]BudgetConfig{"t": {Capacity: 1e18, RefillPerSec: 1}}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := l.Spend("t", 1); err != nil {
			b.Fatal(err)
		}
	}
}
