package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// goldenSeed is the one seed whose modelled results are committed.
const goldenSeed = 1

// golden is the committed record of what the modelled design produces on
// one workload for goldenSeed: a change to host speed must leave it
// untouched, and a change to the modelled design regenerates it with
// -update-golden and shows the difference in review. Floats are stored
// in Go's shortest round-trip form, so equality after reload is exact.
type golden struct {
	Seed    uint64             `json:"seed"`
	Metrics map[string]float64 `json:"metrics"`
	Rows    []simRow           `json:"rows,omitempty"`
}

// checkGolden compares got with the workload's golden file, or rewrites
// the file under -update-golden. Quick runs and other seeds have no
// golden: their pools and windows differ.
func checkGolden(o *runOpts, name string, got golden, fails *failLog) {
	if o.quick || o.seed != goldenSeed {
		return
	}
	got.Seed = o.seed
	path := o.spec.goldenPath(name)
	if o.updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err == nil {
			if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
				err = os.WriteFile(path, append(data, '\n'), 0o644)
			}
		}
		if err != nil {
			fails.addf("write golden: %v", err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fails.addf("no golden results for seed %d: %v (run with -update-golden)", goldenSeed, err)
		return
	}
	var want golden
	if err := json.Unmarshal(data, &want); err != nil {
		fails.addf("golden %s: %v", path, err)
		return
	}
	for _, name := range exact {
		if got.Metrics[name] != want.Metrics[name] {
			fails.addf("%s is %v, golden %v: the modelled design's results moved", name, got.Metrics[name], want.Metrics[name])
		}
	}
	if !slices.Equal(got.Rows, want.Rows) {
		fails.addf("figure rows differ from golden (%s)", firstRowDiff(got.Rows, want.Rows))
	}
}

func firstRowDiff(got, want []simRow) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("row %d is %+v, golden %+v", i, got[i], want[i])
		}
	}
	return "no difference"
}
