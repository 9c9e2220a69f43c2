//go:build race

package propgraph

// raceEnabled reports whether the race detector instruments this build;
// the alloc-budget tests skip under it (instrumentation changes counts).
const raceEnabled = true
