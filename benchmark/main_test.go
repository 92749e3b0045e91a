package main

import (
	"bytes"
	"encoding/json"
	"io"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func quickSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec.root = t.TempDir() // traces of the smoke runs do not belong in the repo
	return spec
}

// TestDeclaredNames holds BENCHMARK.json to the driver's naming rules and
// to the program's own workload table.
func TestDeclaredNames(t *testing.T) {
	spec := quickSpec(t)
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	var declared []string
	for _, w := range spec.Workloads {
		check("workload", w.Name)
		declared = append(declared, w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		check("metric", m.Name)
	}
	sort.Strings(declared)
	if got := workloadNames(); strings.Join(got, ",") != strings.Join(declared, ",") {
		t.Errorf("program runs workloads %v, BENCHMARK.json declares %v", got, declared)
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, name := range exact {
		if !seen[name] {
			t.Errorf("exact metric %s is not declared", name)
		}
	}
}

// TestQuickSmoke runs every workload in both modes at smoke-test scale:
// no contract may be violated and the metrics emitted must be exactly
// the ones BENCHMARK.json declares for the mode.
func TestQuickSmoke(t *testing.T) {
	spec := quickSpec(t)
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			o := &runOpts{seed: 1, seconds: 0.3, quick: true, traced: traced, spec: spec, log: io.Discard}
			res, err := runOne(w, o)
			if err != nil {
				t.Errorf("traced=%v: %v", traced, err)
				continue
			}
			if res.failed != 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w.name, traced, res.failed, res.attempted, res.failures)
			}
			want := map[string]bool{}
			for _, m := range spec.specs(traced) {
				want[m.Name] = true
			}
			for name := range res.metrics {
				if !want[name] {
					t.Errorf("%s traced=%v: emitted undeclared metric %s", w.name, traced, name)
				}
				delete(want, name)
			}
			for name := range want {
				t.Errorf("%s traced=%v: declared metric %s not emitted", w.name, traced, name)
			}
			if !traced {
				for name, v := range res.metrics {
					if v == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w.name, name)
					}
				}
			}
		}
	}
}

// TestResultLine checks the driver-facing form: the last line of a
// single-workload run is one JSON object with exactly the contract's keys.
func TestResultLine(t *testing.T) {
	quickSpec(t)
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "codec_fp", "--seed", "3", "--seconds", "0.2", "--trace", "0", "-quick"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d: %s%s", code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	var keys []string
	for k := range line {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
		t.Errorf("result keys %s", got)
	}
	if code := run([]string{"--workload", "nope"}, io.Discard, io.Discard); code == 0 {
		t.Error("unknown workload exited 0")
	}
}
