//go:build !race

package incr_test

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
