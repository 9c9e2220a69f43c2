package lp

// MinimizeReference exposes the interpreted oracle to the external
// lp_test package, which needs internal/constraints (an importer of lp)
// to build a real system.
var MinimizeReference = minimizeReference
