//go:build race

package value

// raceEnabled reports whether the race detector is compiled in; the
// allocation gates skip under it, where instrumentation skews heap
// accounting.
const raceEnabled = true
