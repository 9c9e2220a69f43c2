//go:build race

package incr_test

// raceEnabled reports whether the race detector instruments this build;
// allocation budgets are skipped then.
const raceEnabled = true
