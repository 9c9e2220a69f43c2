package lp

// The interpreted solvers and the result comparisons, for the external
// lp_test package, which needs internal/constraints (an importer of lp) to
// build a real system.
var (
	MinimizeReference    = minimizeReference
	MinimizeUnfolded     = minimizeUnfolded
	SameBits             = sameBits
	AssertWithinRounding = assertWithinRounding
)
