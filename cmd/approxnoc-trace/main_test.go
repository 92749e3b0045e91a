package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestGenAndInfo(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "t.trace")
	if err := genCmd([]string{"-benchmark", "ssca2", "-packets", "200", "-tiles", "8", "-out", out}); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(out)
	if err != nil || st.Size() == 0 {
		t.Fatalf("trace file missing: %v", err)
	}
	if err := infoCmd([]string{"-in", out}); err != nil {
		t.Fatal(err)
	}
}

// A rejected gen writes nothing: the output file is never created.
func TestGenRejectsUnknownBenchmark(t *testing.T) {
	for _, bad := range [][]string{
		{"-benchmark", "doom"},
		{"-tiles", "0"},          // no tile to address
		{"-tiles", "1"},          // every record would be self-addressed
		{"-tiles", "65537"},      // tile IDs past the 16-bit trace field
		{"-packets", "-1"},       // negative record count
		{"-approx-ratio", "2"},   // a fraction above 1
		{"-approx-ratio", "-.5"}, // a fraction below 0
	} {
		out := filepath.Join(t.TempDir(), "t.trace")
		if err := genCmd(append([]string{"-packets", "5", "-out", out}, bad...)); err == nil {
			t.Fatalf("%v accepted", bad)
		}
		if _, err := os.Stat(out); err == nil {
			t.Fatalf("%v: trace file written before failing", bad)
		}
	}
}

func TestInfoRequiresInput(t *testing.T) {
	if err := infoCmd(nil); err == nil {
		t.Fatal("missing -in accepted")
	}
	if err := infoCmd([]string{"-in", "/does/not/exist"}); err == nil {
		t.Fatal("missing file accepted")
	}
}
