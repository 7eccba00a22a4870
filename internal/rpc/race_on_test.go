//go:build race

package rpc

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
