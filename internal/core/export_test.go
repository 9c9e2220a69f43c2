package core

// Poison overwrites every buffer of the scratch with garbage (see
// arena.Arena.Poison): whatever the front-end returned earlier must not
// notice. Reset the scratch before using it again.
func (s *Scratch) Poison() {
	s.parse.Poison()
	s.flow.Poison()
}
