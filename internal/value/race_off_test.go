//go:build !race

package value

const raceEnabled = false
