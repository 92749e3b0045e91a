//go:build !race

package noc

// RaceEnabled reports whether the race detector is compiled in: sync.Pool
// then drops a random quarter of what Release puts, so slab reuse and the
// allocation counts that follow from it are not exact. It is exported for
// the noc_test package's allocation gate.
const RaceEnabled = false
