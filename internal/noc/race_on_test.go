//go:build race

package noc

// RaceEnabled reports whether the race detector is compiled in. It is
// exported for the noc_test package's allocation gate.
const RaceEnabled = true
