package obs

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"approxnoc/internal/stats"
)

// pullCounter registers an unlabeled counter family that reads v at
// scrape time — the shape every production counter has.
func pullCounter(r *Registry, name, help string, v *atomic.Uint64) {
	r.Collector(name, help, TypeCounter, nil, func() []Sample {
		return []Sample{{Value: float64(v.Load())}}
	})
}

// only returns the single sample of the single family named name.
func only(t *testing.T, r *Registry, name string) Sample {
	t.Helper()
	for _, f := range r.Snapshot().Families {
		if f.Name == name && len(f.Samples) == 1 {
			return f.Samples[0]
		}
	}
	t.Fatalf("no single-sample family %q", name)
	return Sample{}
}

func TestCounter(t *testing.T) {
	r := NewRegistry()
	var c atomic.Uint64
	pullCounter(r, "reqs_total", "requests", &c)
	c.Add(1)
	c.Add(41)
	if got := only(t, r, "reqs_total").Value; got != 42 {
		t.Fatalf("counter = %g, want 42", got)
	}
	// The owner keeps the number; the next scrape sees it move.
	c.Add(8)
	if got := only(t, r, "reqs_total").Value; got != 50 {
		t.Fatalf("counter = %g after the owner moved it, want 50", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	var bits atomic.Uint64
	r.GaugeFunc("depth", "queue depth", func() float64 { return math.Float64frombits(bits.Load()) })
	bits.Store(math.Float64bits(3.5 - 1.25))
	if got := only(t, r, "depth").Value; got != 2.25 {
		t.Fatalf("gauge = %g, want 2.25", got)
	}
}

func TestHistogram(t *testing.T) {
	var h stats.LatencyHist
	for i := 0; i < 100; i++ {
		h.Observe(100 * time.Nanosecond)
	}
	s := HistogramSamples([]string{"0"}, h.Snapshot())
	if len(s) != 3 || s[0].Suffix != "_count" || s[1].Suffix != "_p50_ns" || s[2].Suffix != "_p99_ns" {
		t.Fatalf("histogram samples %+v", s)
	}
	// 100 ns has bit length 7, so the bucket's upper edge is 2^7-1.
	if s[0].Value != 100 || s[1].Value != 127 || s[2].Value != 127 {
		t.Fatalf("count/p50/p99 = %g/%g/%g, want 100/127/127", s[0].Value, s[1].Value, s[2].Value)
	}
	for _, smp := range s {
		if len(smp.LabelValues) != 1 || smp.LabelValues[0] != "0" {
			t.Fatalf("sample %+v lost its label values", smp)
		}
	}
	if z := HistogramSamples(nil, stats.LatencySnapshot{}); z[0].Value != 0 || z[2].Value != 0 {
		t.Fatalf("empty histogram samples %+v", z)
	}
}

// TestSamplesSortByLabelValues: a collector may return its samples in
// any order; the snapshot orders them by label values, then suffix, so
// identical state renders identically.
func TestSamplesSortByLabelValues(t *testing.T) {
	r := NewRegistry()
	r.Collector("lat_ns", "latency", TypeHistogram, []string{"shard"}, func() []Sample {
		var one, two stats.LatencySnapshot
		one[10], two[4] = 1, 2
		return append(HistogramSamples([]string{"1"}, one), HistogramSamples([]string{"0"}, two)...)
	})
	r.Collector("words_total", "words", TypeCounter, []string{"kind"}, func() []Sample {
		return []Sample{
			{LabelValues: []string{"exact"}, Value: 1},
			{LabelValues: []string{"approx"}, Value: 2},
		}
	})
	snap := r.Snapshot()
	if len(snap.Families) != 2 {
		t.Fatalf("%d families", len(snap.Families))
	}
	words := snap.Families[1]
	if words.Name != "words_total" || len(words.Samples) != 2 {
		t.Fatalf("words family %+v", words)
	}
	// "approx" < "exact".
	if words.Samples[0].Value != 2 || words.Samples[1].Value != 1 {
		t.Fatalf("words samples %+v", words.Samples)
	}
	lat := snap.Families[0].Samples
	if len(lat) != 6 || lat[0].LabelValues[0] != "0" || lat[0].Suffix != "_count" || lat[0].Value != 2 ||
		lat[2].Suffix != "_p99_ns" || lat[3].LabelValues[0] != "1" {
		t.Fatalf("histogram samples %+v", lat)
	}
}

func TestGaugeFuncAndCollector(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	r.GaugeFunc("uptime", "seconds", func() float64 { return v })
	r.Collector("flits_total", "flits", TypeCounter, []string{"dir"}, func() []Sample {
		return []Sample{
			{LabelValues: []string{"in"}, Value: 7},
			{LabelValues: []string{"out"}, Value: 5},
		}
	})
	v = 2.5
	snap := r.Snapshot()
	if got := snap.Families[0].Samples; len(got) != 2 || got[0].Value != 7 {
		t.Fatalf("collector samples %+v", got)
	}
	if got := snap.Families[1].Samples[0].Value; got != 2.5 {
		t.Fatalf("gauge func = %g, want the live value 2.5", got)
	}
}

func TestSnapshotSortedByName(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"zebra", "alpha", "mid"} {
		r.GaugeFunc(name, "", func() float64 { return 0 })
	}
	snap := r.Snapshot()
	names := []string{snap.Families[0].Name, snap.Families[1].Name, snap.Families[2].Name}
	if names[0] != "alpha" || names[1] != "mid" || names[2] != "zebra" {
		t.Fatalf("family order %v", names)
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	zero := func() float64 { return 0 }
	none := func() []Sample { return nil }
	r.GaugeFunc("dup_total", "", zero)
	mustPanic("duplicate name", func() { r.GaugeFunc("dup_total", "", zero) })
	mustPanic("duplicate across kinds", func() { r.Collector("dup_total", "", TypeCounter, nil, none) })
	mustPanic("empty name", func() { r.GaugeFunc("", "", zero) })
	mustPanic("uppercase name", func() { r.GaugeFunc("BadName", "", zero) })
	mustPanic("leading digit", func() { r.GaugeFunc("9lives", "", zero) })
	mustPanic("bad label", func() { r.Collector("ok_total", "", TypeCounter, []string{"bad-label"}, none) })
	mustPanic("nil collector", func() { r.Collector("nilc", "", TypeCounter, nil, nil) })
}

func TestValidName(t *testing.T) {
	for name, want := range map[string]bool{
		"ok":        true,
		"snake_2":   true,
		"_leading":  true,
		"":          false,
		"1st":       false,
		"has space": false,
		"Upper":     false,
		"dash-ed":   false,
	} {
		if got := validName(name); got != want {
			t.Errorf("validName(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestTypeString(t *testing.T) {
	for typ, want := range map[Type]string{
		TypeCounter:   "counter",
		TypeGauge:     "gauge",
		TypeHistogram: "histogram",
		Type(200):     "Type(200)",
	} {
		if got := typ.String(); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", uint8(typ), got, want)
		}
	}
}
