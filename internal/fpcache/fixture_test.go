package fpcache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestFixtureRoundTrip pins the entry format: testdata/entry.fpc was
// written by the code as it stood before internal/envelope existed, and
// must decode and re-encode to the same bytes. UPDATE_GOLDEN=1 rewrites
// it — only a codec or analyzer version bump should need that.
func TestFixtureRoundTrip(t *testing.T) {
	path := filepath.Join("testdata", "entry.fpc")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		e := testEntry(t)
		e.ParseError = "app.py:3:1: unexpected token"
		if err := os.WriteFile(path, e.encode(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	e, err := decodeEntry(data)
	if err != nil {
		t.Fatalf("decode fixture: %v", err)
	}
	if e.ParseError == "" || e.Cost == 0 || len(e.Graph.Events) == 0 {
		t.Fatalf("fixture decoded to an empty entry: %+v", e)
	}
	if !bytes.Equal(e.encode(), data) {
		t.Fatal("fixture does not re-encode to its own bytes")
	}
}
