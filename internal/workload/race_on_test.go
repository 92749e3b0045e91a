//go:build race

package workload

// raceEnabled reports whether the race detector is compiled in; the
// allocation gate skips under it, where instrumentation skews heap
// accounting.
const raceEnabled = true
