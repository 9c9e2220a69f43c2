package incr_test

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"seldon/internal/core"
	"seldon/internal/incr"
	"seldon/internal/propgraph"
)

// TestStateFixtureRoundTrip pins the state format: testdata/state.bin
// (version 2: three files, one of them with a parse error, a solution,
// one pin) must load — adopting its own seed and knobs — save back to the
// same bytes, and re-learn reporting the parse error. UPDATE_GOLDEN=1
// rewrites it — only a format or analyzer version bump should need that.
func TestStateFixtureRoundTrip(t *testing.T) {
	path := filepath.Join("testdata", incr.StateFile)
	cfg := core.Config{Workers: 1}
	files, names := testCorpus(t, 3, 5)
	files[names[0]] += "def broken(:\n    pass\n"
	if os.Getenv("UPDATE_GOLDEN") != "" {
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
	if res, _ := s.Relearn(); !slices.Equal(res.ParseErrorFiles, names[:1]) {
		t.Errorf("fixture re-learns with parse errors in %q, want %q", res.ParseErrorFiles, names[:1])
	}
}
