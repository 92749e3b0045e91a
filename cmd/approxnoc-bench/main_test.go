package main

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"approxnoc/internal/experiments"
)

func tinyCfg() experiments.Config {
	cfg := experiments.Default()
	cfg.Cycles = 1500
	return cfg
}

// noGrid fails a test that reaches the shared grid without meaning to.
func noGrid() (experiments.Grid, error) {
	return experiments.Grid{}, errors.New("grid not expected")
}

func TestRunKnownExperiments(t *testing.T) {
	for _, id := range []string{"table1", "area", "fig17"} {
		rows, text, err := run(id, tinyCfg(), noGrid)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if rows == nil || text == "" {
			t.Fatalf("%s: empty output", id)
		}
	}
}

// An unknown id, and a retired one, fails in resolve: nothing runs.
func TestRunRejectsUnknown(t *testing.T) {
	for _, id := range []string{"fig99", "fig16-measured"} {
		if _, _, err := run(id, tinyCfg(), noGrid); err == nil {
			t.Fatalf("unknown experiment %q accepted", id)
		}
	}
}

// Every id -list prints, and both Fig. 10 aliases, must have a case in
// resolve; nothing is executed.
func TestExperimentOrderResolvable(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range experimentOrder {
		if seen[id] {
			t.Fatalf("duplicate experiment id %q", id)
		}
		seen[id] = true
	}
	for _, id := range append([]string{"fig10a", "fig10b"}, experimentOrder...) {
		if exec, err := resolve(id, tinyCfg(), noGrid); err != nil || exec == nil {
			t.Errorf("%q in -list does not resolve: %v", id, err)
		}
	}
}

// The four figures that are views of one grid replay it once per
// process, counted at the function the once-wrapper guards.
func TestSharedGridRunsOnce(t *testing.T) {
	cfg := tinyCfg()
	calls := 0
	grid := sync.OnceValues(func() (experiments.Grid, error) {
		calls++
		return experiments.RunGrid(cfg)
	})
	for _, id := range []string{"fig9", "fig10", "fig10a", "fig11", "fig15"} {
		rows, text, err := run(id, cfg, grid)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if rows == nil || !strings.Contains(text, "ssca2") {
			t.Fatalf("%s: no table:\n%s", id, text)
		}
	}
	if calls != 1 {
		t.Fatalf("RunGrid ran %d times for four views, want 1", calls)
	}
}

// An id that reads neither -seed nor -cycles says so when either is set
// explicitly; one that reads them stays quiet.
func TestIgnoredFlagNotes(t *testing.T) {
	seed := map[string]bool{"exp": true, "seed": true}
	if got := ignoredFlagNotes([]string{"fig16"}, seed); len(got) != 1 ||
		!strings.Contains(got[0], "fig16") || !strings.Contains(got[0], "-seed") {
		t.Fatalf("-exp fig16 -seed 7: notes %q, want one naming fig16 and -seed", got)
	}
	if got := ignoredFlagNotes([]string{"fig9"}, seed); len(got) != 0 {
		t.Fatalf("-exp fig9 -seed 7: notes %q, want none", got)
	}
	if got := ignoredFlagNotes([]string{"fig16"}, map[string]bool{"exp": true}); len(got) != 0 {
		t.Fatalf("-exp fig16 with default flags: notes %q, want none", got)
	}
	for _, id := range fixedRuns {
		if _, err := resolve(id, tinyCfg(), noGrid); err != nil {
			t.Errorf("fixed id %q does not resolve: %v", id, err)
		}
	}
}
