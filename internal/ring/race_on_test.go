//go:build race

package ring

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
