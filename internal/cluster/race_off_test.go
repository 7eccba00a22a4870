//go:build !race

package cluster

// raceEnabled reports whether the race detector instruments this build.
// Allocation-budget tests skip themselves under -race: the detector's
// shadow-memory bookkeeping allocates, so AllocsPerRun is meaningless.
const raceEnabled = false
