//go:build race

package membership

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
