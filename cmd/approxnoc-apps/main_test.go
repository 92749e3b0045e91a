package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunAppsSingleKernel(t *testing.T) {
	var buf bytes.Buffer
	if err := runApps("blackscholes", "FP-VAXX", 10, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "blackscholes") || !strings.Contains(out, "FP-VAXX") {
		t.Fatalf("output:\n%s", out)
	}
}

// A rejected input writes nothing: no table header ahead of the error.
func TestRunAppsRejectsBadInputs(t *testing.T) {
	for _, c := range []struct {
		app, scheme string
		threshold   int
	}{
		{"doom", "FP-VAXX", 10},      // unknown kernel
		{"ssca2", "NOPE", 10},        // unknown scheme
		{"ssca2", "DI-VAXX", 150},    // threshold out of range
		{"swaptions", "FP-VAXX", -5}, // negative threshold
	} {
		var buf bytes.Buffer
		if err := runApps(c.app, c.scheme, c.threshold, &buf); err == nil {
			t.Fatalf("%+v accepted", c)
		}
		if buf.Len() != 0 {
			t.Fatalf("%+v: wrote %q before failing", c, buf.String())
		}
	}
}
