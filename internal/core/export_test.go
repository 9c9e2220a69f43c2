package core

import "seldon/internal/propgraph"

// Poison overwrites every buffer of the scratch with garbage (see
// arena.Arena.Poison): whatever the front-end returned earlier must not
// notice. Reset the scratch before using it again.
func (s *Scratch) Poison() {
	s.parse.Poison()
	s.flow.Poison()
}

// ScoreOf returns the solver score for (rep, role), or 0 when the
// representation has no variable.
func (r *Result) ScoreOf(rep string, role propgraph.Role) float64 {
	id := r.System.VarID(rep, role)
	if id < 0 {
		return 0
	}
	return r.Solution[id]
}
