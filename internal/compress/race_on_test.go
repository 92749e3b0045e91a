//go:build race

package compress

// raceEnabled reports whether the race detector is compiled in, which
// drops pooled objects at random.
const raceEnabled = true
