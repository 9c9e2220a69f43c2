package incr

import "seldon/internal/propgraph"

// Unpin removes a feedback pin, reporting whether it existed. No caller
// outside the tests withdraws a verdict; the edit-sequence oracle and the
// fuzz target do, to hold a session that loses a pin to the one-shot
// functions.
func (s *Session) Unpin(rep string, role propgraph.Role) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.pins[PinKey{Rep: rep, Role: role}]; !ok {
		return false
	}
	delete(s.pins, PinKey{Rep: rep, Role: role})
	return true
}

// FileHash returns the sha256 of the named file's source text and
// whether the session holds that file with a recorded content hash.
func (s *Session) FileHash(name string) ([32]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fs := s.files[name]
	if fs == nil || !fs.hasContent {
		return [32]byte{}, false
	}
	return fs.contentHash, true
}
