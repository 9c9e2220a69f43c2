//go:build !race

package propgraph

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
