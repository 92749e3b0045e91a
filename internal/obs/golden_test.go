package obs_test

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"approxnoc/internal/golden"
	"approxnoc/internal/obs"
	"approxnoc/internal/stats"
)

// TestGoldenVectors pins the text exposition format: the checked-in
// scrape of a registry with every family type must regenerate
// byte-identically from today's WriteText. A diff means every scrape
// consumer (dashboards, make obs-demo, ParseText) sees a format change —
// make it deliberate, then regenerate with `GOLDEN=update go test ./...`.
func TestGoldenVectors(t *testing.T) {
	var buf bytes.Buffer
	genMetrics(&buf, golden.Suite(&buf, "metrics"))
	got := buf.Bytes()
	golden.Check(t, filepath.Join("testdata", "golden_metrics.txt"), got)
	// The pinned bytes must also satisfy our own parser — the format
	// can't drift somewhere ParseText no longer accepts.
	exp, err := obs.ParseText(bytes.NewReader(got))
	if err != nil {
		t.Fatalf("golden exposition does not parse: %v", err)
	}
	for name, typ := range map[string]string{
		"demo_requests_total": "counter",
		"demo_latency_ns":     "histogram",
		"demo_queue_depth":    "gauge",
	} {
		if exp.Types[name] != typ {
			t.Errorf("golden type[%s] = %q, want %q", name, exp.Types[name], typ)
		}
	}
	if !strings.Contains(string(got), `demo_ratio{scheme="di",threshold="0"}`) {
		t.Error("golden file lost its labeled samples")
	}
}

// genMetrics pins the obs text exposition format: a registry with every
// family type, labels, suffixes, and value shapes, rendered through
// WriteText. The numbers are drawn into owner-side variables first and
// every family is a collector that reads them at scrape time — the one
// registration path production uses. A diff means scrape consumers
// would see different bytes for identical state.
func genMetrics(w *bytes.Buffer, r *golden.Rand) {
	reqs := r.Intn(100000)
	var words, ratios []obs.Sample
	for _, kind := range []string{"approx", "exact", "raw"} {
		words = append(words, obs.Sample{LabelValues: []string{kind}, Value: float64(r.Intn(5000))})
	}
	depth := r.Intn(64)
	for _, scheme := range []string{"di", "fp"} {
		for _, thr := range []string{"0", "5", "10"} {
			ratios = append(ratios, obs.Sample{LabelValues: []string{scheme, thr},
				Value: 1 + float64(r.Intn(1000))/512})
		}
	}
	var lat stats.LatencyHist
	for i := 0; i < 200; i++ {
		lat.Observe(time.Duration(r.Intn(1 << uint(4+r.Intn(16)))))
		r.Next() // golden_metrics.txt was recorded with a third draw per observation
	}

	reg := obs.NewRegistry()
	reg.Collector("demo_requests_total", "requests served", obs.TypeCounter, nil,
		func() []obs.Sample { return []obs.Sample{{Value: float64(reqs)}} })
	reg.Collector("demo_words_total", "encoder word outcomes", obs.TypeCounter,
		[]string{"kind"}, func() []obs.Sample { return words })
	reg.GaugeFunc("demo_queue_depth", "live queue depth", func() float64 { return float64(depth) })
	reg.Collector("demo_ratio", "compression ratio", obs.TypeGauge,
		[]string{"scheme", "threshold"}, func() []obs.Sample { return ratios })
	reg.Collector("demo_latency_ns", "request latency", obs.TypeHistogram, nil,
		func() []obs.Sample { return obs.HistogramSamples(nil, lat.Snapshot()) })
	reg.GaugeFunc("demo_uptime_seconds", "seconds since boot", func() float64 { return 1234.5 })
	reg.Collector("demo_flits_total", "flits by direction", obs.TypeCounter,
		[]string{"dir"}, func() []obs.Sample {
			return []obs.Sample{
				{LabelValues: []string{"ejected"}, Value: 4093},
				{LabelValues: []string{"injected"}, Value: 4099},
			}
		})

	if err := reg.WriteText(w); err != nil {
		panic(err)
	}
}
