package incr_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"seldon/internal/core"
	"seldon/internal/incr"
	"seldon/internal/propgraph"
)

// TestStateFixtureRoundTrip pins the state format: testdata/state.bin
// (version 5: three files, one of them with a parse error, a solution,
// one pin) must be what SaveDir writes for that session today, load
// through LoadDir — adopting its own seed and knobs — save back to the
// same bytes, and re-learn reporting the parse error. UPDATE_GOLDEN=1
// rewrites it and the FuzzLoadState seeds made from it — only a format or
// analyzer version bump should need that.
func TestStateFixtureRoundTrip(t *testing.T) {
	path := filepath.Join("testdata", incr.StateFile)
	cfg := core.Config{Workers: 1}
	files, names := testCorpus(t, 3, 5)
	files[names[0]] += "def broken(:\n    pass\n"
	fresh := sessionFrom(t, files, cfg)
	fresh.Pin("shellrun.invoke()", propgraph.Sink, 0)
	fresh.Relearn()
	freshDir := t.TempDir()
	if err := fresh.SaveDir(freshDir); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(freshDir, incr.StateFile))
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		writeStateSeeds(t)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, data) {
		t.Fatal("the code writes another state than testdata/state.bin: run make fixtures if the format moved on purpose")
	}
	s, err := incr.LoadDir("testdata", nil, cfg)
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	if s.Len() != 3 || s.Pins() != 1 {
		t.Fatalf("fixture holds %d files and %d pins, want 3 and 1", s.Len(), s.Pins())
	}
	out := t.TempDir()
	if err := s.SaveDir(out); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(out, incr.StateFile)); !bytes.Equal(got, data) {
		t.Fatal("fixture does not save back to its own bytes")
	}
	if res, _ := s.Relearn(); !slices.Equal(res.ParseErrorFiles, names[:1]) {
		t.Errorf("fixture re-learns with parse errors in %q, want %q", res.ParseErrorFiles, names[:1])
	}
}

// writeStateSeeds writes FuzzLoadState's seeds: the body of the fixture,
// the fixture with each seeded uncanonical damage, and the fixture with a
// file count larger than the bytes left.
func writeStateSeeds(t *testing.T) {
	t.Helper()
	seeds := map[string][]byte{"fixture_state_bin": fixtureParts(t).body()}
	for _, tc := range uncanonical {
		if tc.seed != "" {
			p := fixtureParts(t)
			tc.damage(&p)
			seeds[tc.seed] = p.body()
		}
	}
	p := fixtureParts(t)
	hostile := binary.AppendUvarint(slices.Clone(p.head), 1<<32)
	// The fixture's count of three files is one byte.
	seeds["hostile_file_count"] = append(hostile, p.body()[len(p.head)+1:]...)
	for name, b := range seeds {
		seed := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
		if err := os.WriteFile(filepath.Join("testdata", "fuzz", "FuzzLoadState", name), []byte(seed), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
