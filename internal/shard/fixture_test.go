package shard

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"seldon/internal/core"
)

// TestFixtureRoundTrip pins the wire format: testdata/slice.shard was
// written by the code as it stood before internal/envelope existed
// (slice 1 of 2 of a four-file corpus, sidecar attached), and must
// stream-decode and re-encode to the same bytes. UPDATE_GOLDEN=1
// rewrites it — only a codec or analyzer version bump should need that.
func TestFixtureRoundTrip(t *testing.T) {
	path := filepath.Join("testdata", "slice.shard")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		files := core.SliceFiles(testFiles(t, 4), 1, 2)
		a, fe, err := Build(files, 1, 2, core.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		a.AttachSidecar(files, fe)
		if err := os.WriteFile(path, a.Encode(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := streamDecode(data)
	if err != nil {
		t.Fatalf("decode fixture: %v", err)
	}
	if !a.Sidecar || len(a.Files) == 0 {
		t.Fatalf("fixture has %d files, sidecar %v: want a sidecar and at least one file", len(a.Files), a.Sidecar)
	}
	if !bytes.Equal(a.Encode(), data) {
		t.Fatal("fixture does not re-encode to its own bytes")
	}
}
