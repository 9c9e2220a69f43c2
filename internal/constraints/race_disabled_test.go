//go:build !race

package constraints

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
