package main

import "testing"

func TestRunSyntheticSmoke(t *testing.T) {
	err := run(2, 2, 1, "FP-VAXX", 10, "synthetic", "uniform-random",
		0.05, 0.25, "blackscholes", 0.75, "", 1500, 1, "")
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunReqReplySmoke(t *testing.T) {
	err := run(2, 2, 1, "Baseline", 0, "reqreply", "uniform-random",
		0.01, 0.25, "ssca2", 0.75, "", 1500, 1, "")
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	type args struct {
		scheme, mode, pattern, bench, trace string
		cycles                              int
		approxRatio                         float64
	}
	for _, breakIt := range []func(*args){
		func(a *args) { a.scheme = "NOPE" },
		func(a *args) { a.mode = "warp" },
		func(a *args) { a.pattern = "spiral" },
		func(a *args) { a.bench = "doom" },
		func(a *args) { a.mode = "replay" },                        // missing trace
		func(a *args) { a.mode, a.trace = "replay", "/nope" },      // unreadable trace
		func(a *args) { a.cycles = 0 },                             // nothing to simulate
		func(a *args) { a.cycles = -5 },                            // negative horizon
		func(a *args) { a.approxRatio = 2 },                        // a fraction above 1
		func(a *args) { a.mode, a.approxRatio = "reqreply", -0.5 }, // a fraction below 0
	} {
		c := args{"Baseline", "synthetic", "uniform-random", "ssca2", "", 100, 0.75}
		breakIt(&c)
		err := run(2, 2, 1, c.scheme, 10, c.mode, c.pattern, 0.05, 0.25, c.bench, c.approxRatio, c.trace, c.cycles, 1, "")
		if err == nil {
			t.Fatalf("accepted %+v", c)
		}
	}
}
