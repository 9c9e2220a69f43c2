package incr

import (
	"slices"

	"seldon/internal/constraints"
	"seldon/internal/fpcache"
	"seldon/internal/propgraph"
)

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

// Record returns the named file's record and whether the session holds
// the file.
func (s *Session) Record(name string) (fpcache.Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fs := s.file(name)
	if fs == nil {
		return fpcache.Record{}, false
	}
	return fs.Record, true
}

// Spans returns the spans the last Relearn handed the constraint build.
func (s *Session) Spans() []constraints.Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.spans)
}

// SaveFlowCache writes the session's flow-block cache to path, in the
// flowcache.bin that older session directories hold beside state.bin.
func (s *Session) SaveFlowCache(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.Save(path, s.cfg.Constraints)
}
