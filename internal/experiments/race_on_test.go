//go:build race

package experiments

// raceEnabled reports whether the race detector is compiled in; the
// allocation gate skips under it, where instrumentation skews heap
// accounting.
const raceEnabled = true
