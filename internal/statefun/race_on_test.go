//go:build race

package statefun

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
