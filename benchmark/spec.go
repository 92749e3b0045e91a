package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricSpec is one metric declaration of BENCHMARK.json. Bound is only
// set on end-to-end metrics: the share of the parent's median by which
// the metric may worsen.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json. The file is the single declaration
// of metric names, units, directions and bounds; the program looks its
// units up here and refuses to emit a name the file does not declare.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`

	// root is the directory BENCHMARK.json was found in; golden files
	// and trace output are addressed relative to it.
	root string
}

// loadSpec finds BENCHMARK.json in the working directory (the driver and
// `go run ./benchmark` start at the repo root) or its parent (`go test`
// starts in benchmark/).
func loadSpec() (*benchSpec, error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("read BENCHMARK.json: %w", err)
		}
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("parse BENCHMARK.json: %w", err)
		}
		s.root = dir
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// specs returns the metric declarations of one mode: per-layer for a
// traced run, end-to-end otherwise.
func (s *benchSpec) specs(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

func (s *benchSpec) goldenPath(workload string) string {
	return filepath.Join(s.root, "benchmark", "golden", workload+".json")
}

func (s *benchSpec) tracePath(workload string) string {
	return filepath.Join(s.root, "benchmark", "out", "trace_"+workload+".json")
}
