package incr_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"seldon/internal/core"
	"seldon/internal/incr"
	"seldon/internal/propgraph"
)

// TestStateFixtureRoundTrip pins the state format: testdata/state.bin
// was written by the code as it stood before internal/envelope existed
// (three files, a solution, one pin), and must load — adopting its own
// seed and knobs — and save back to the same bytes. UPDATE_GOLDEN=1
// rewrites it — only a format or analyzer version bump should need that.
func TestStateFixtureRoundTrip(t *testing.T) {
	path := filepath.Join("testdata", incr.StateFile)
	cfg := core.Config{Workers: 1}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		files, _ := testCorpus(t, 3, 5)
		s := sessionFrom(t, files, cfg)
		s.Pin("shellrun.invoke()", propgraph.Sink, 0)
		s.Relearn()
		if err := s.Save(path); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := incr.Load(path, nil, cfg)
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	if s.Len() != 3 || s.Pins() != 1 {
		t.Fatalf("fixture holds %d files and %d pins, want 3 and 1", s.Len(), s.Pins())
	}
	out := filepath.Join(t.TempDir(), incr.StateFile)
	if err := s.Save(out); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(out); !bytes.Equal(got, data) {
		t.Fatal("fixture does not save back to its own bytes")
	}
}
