package obs_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"approxnoc/internal/obs"
	"approxnoc/internal/vectors"
)

// TestGoldenVectors pins the text exposition format: the checked-in
// scrape of a registry with every family type must regenerate
// byte-identically from today's WriteText. A diff means every scrape
// consumer (dashboards, make obs-demo, ParseText) sees a format change —
// make it deliberate, then regenerate with `go run ./cmd/approxnoc-vectors`.
func TestGoldenVectors(t *testing.T) {
	want, err := vectors.Generate("metrics", vectors.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("testdata", "golden_metrics.txt"))
	if err != nil {
		t.Fatalf("%v (run: go run ./cmd/approxnoc-vectors)", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("golden_metrics.txt does not match the current exposition output; " +
			"if the format change is intended, run: go run ./cmd/approxnoc-vectors")
	}
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
