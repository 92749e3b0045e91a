package obs

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"approxnoc/internal/stats"
)

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	var reqs atomic.Uint64
	reqs.Add(3)
	pullCounter(r, "reqs_total", "requests served", &reqs)
	r.Collector("ratio", "compression ratio", TypeGauge, []string{"scheme", "thr"}, func() []Sample {
		return []Sample{{LabelValues: []string{"fpc", "5"}, Value: 1.375}}
	})
	r.Collector("weird", "", TypeCounter, []string{"v"}, func() []Sample {
		return []Sample{{LabelValues: []string{`a"b\c`}, Value: 1}}
	})

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP ratio compression ratio
# TYPE ratio gauge
ratio{scheme="fpc",thr="5"} 1.375
# HELP reqs_total requests served
# TYPE reqs_total counter
reqs_total 3
# TYPE weird counter
weird{v="a\"b\\c"} 1
`
	if sb.String() != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestFormatValue(t *testing.T) {
	for v, want := range map[float64]string{
		0:       "0",
		3:       "3",
		-17:     "-17",
		1.5:     "1.5",
		1e15:    "1e+15", // too large for exact integer rendering
		0.00025: "0.00025",
	} {
		if got := formatValue(v); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestEscapeLabel(t *testing.T) {
	if got := escapeLabel("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Fatalf("escapeLabel = %q", got)
	}
}

func TestParseTextRoundtrip(t *testing.T) {
	r := NewRegistry()
	var reqs atomic.Uint64
	reqs.Add(7)
	pullCounter(r, "reqs_total", "requests", &reqs)
	var lat stats.LatencyHist
	lat.Observe(100 * time.Nanosecond)
	r.Collector("lat_ns", "latency", TypeHistogram, nil, func() []Sample {
		return HistogramSamples(nil, lat.Snapshot())
	})
	r.Collector("depth", "queue depth", TypeGauge, []string{"shard"}, func() []Sample {
		return []Sample{{LabelValues: []string{"3"}, Value: 12}}
	})

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("own exposition does not parse: %v", err)
	}
	for name, typ := range map[string]string{
		"reqs_total": "counter", "lat_ns": "histogram", "depth": "gauge",
	} {
		if exp.Types[name] != typ {
			t.Errorf("type[%s] = %q, want %q", name, exp.Types[name], typ)
		}
	}
	// 1 counter + 3 histogram + 1 gauge sample lines.
	if exp.Samples != 5 {
		t.Fatalf("%d samples, want 5", exp.Samples)
	}
	if exp.Values["reqs_total"] != 7 {
		t.Fatalf("reqs_total = %g", exp.Values["reqs_total"])
	}
	if exp.Values[`depth{shard="3"}`] != 12 {
		t.Fatalf("labeled gauge = %g", exp.Values[`depth{shard="3"}`])
	}
	if exp.Values["lat_ns_count"] != 1 {
		t.Fatalf("suffixed sample = %g", exp.Values["lat_ns_count"])
	}
}

func TestParseTextErrors(t *testing.T) {
	cases := map[string]string{
		"undeclared family": "orphan 1\n",
		"malformed line":    "# TYPE x counter\nx\n",
		"unclosed labels":   "# TYPE x counter\nx{a=\"1\" 2\n",
		"bad value":         "# TYPE x counter\nx one\n",
	}
	for name, text := range cases {
		if _, err := ParseText(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
	// Blank lines and non-TYPE comments are fine.
	exp, err := ParseText(strings.NewReader("\n# HELP x something\n# TYPE x counter\nx 1\n"))
	if err != nil || exp.Samples != 1 {
		t.Fatalf("benign input rejected: %v (%+v)", err, exp)
	}
}

func TestFamilyDeclared(t *testing.T) {
	types := map[string]string{"lat_ns": "histogram"}
	for sample, want := range map[string]bool{
		"lat_ns":                  true,
		"lat_ns_count":            true,
		"lat_ns_p99_ns":           true,
		`lat_ns_count{shard="0"}`: true,
		"other":                   false,
		`other_total{dir="in"}`:   false,
	} {
		if got := familyDeclared(types, sample); got != want {
			t.Errorf("familyDeclared(%q) = %v, want %v", sample, got, want)
		}
	}
}

func TestSplitSampleName(t *testing.T) {
	if name, v, ok := splitSampleName(`m{a="1"} 2`); !ok || name != `m{a="1"}` || v != "2" {
		t.Fatalf("labeled: %q %q %v", name, v, ok)
	}
	if name, v, ok := splitSampleName("m 2"); !ok || name != "m" || v != "2" {
		t.Fatalf("plain: %q %q %v", name, v, ok)
	}
	for _, bad := range []string{"m", " 2", `m{a="1"}2`, `m{a="1"`} {
		if _, _, ok := splitSampleName(bad); ok {
			t.Errorf("splitSampleName(%q) accepted", bad)
		}
	}
}
