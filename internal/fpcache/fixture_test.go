package fpcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"seldon/internal/envelope"
)

// TestFixtureRoundTrip pins the entry format: testdata/entry.fpc (codec
// version 4: the record of app.py with a parse error) must be what the
// code writes for that record today, and must decode and re-encode to
// the same bytes. UPDATE_GOLDEN=1 rewrites it and the FuzzFpcacheEntry
// seeds made from it — only a codec or analyzer version bump should need
// that.
func TestFixtureRoundTrip(t *testing.T) {
	path := filepath.Join("testdata", "entry.fpc")
	rec := testRecord(t)
	rec.ParseError = "app.py:3:1: unexpected token"
	fresh := appendEntry(rec)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		writeEntrySeeds(t, testRecord(t))
		if err := os.WriteFile(path, fresh, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, data) {
		t.Fatal("the code writes another entry than testdata/entry.fpc: run make fixtures if the format moved on purpose")
	}
	got, e, err := decodeEntry(data)
	if err != nil {
		t.Fatalf("decode fixture: %v", err)
	}
	if got.Name != "app.py" || e.ParseError == "" || len(e.Graph.Events) == 0 {
		t.Fatalf("fixture decoded to an empty entry: %+v", e)
	}
	if !bytes.Equal(appendEntry(&got), data) {
		t.Fatal("fixture does not re-encode to its own bytes")
	}
}

// writeEntrySeeds writes FuzzFpcacheEntry's seeds: bodies of the entry of
// rec without a parse error and with the fixture's, and of entries no
// encoder writes — another codec version, a byte after the record.
func writeEntrySeeds(t *testing.T, clean *Record) {
	t.Helper()
	body := func(rec *Record) []byte {
		data := appendEntry(rec)
		return data[len(magic) : len(data)-envelope.ChecksumSize]
	}
	withError := *clean
	withError.ParseError = "app.py:3:1: unexpected token"
	oldVersion := bytes.Clone(body(clean))
	oldVersion[0] = 1
	for name, b := range map[string][]byte{
		"clean_entry":     body(clean),
		"parse_error":     body(&withError),
		"codec_version_1": oldVersion,
		"trailing_byte":   append(bytes.Clone(body(clean)), 0),
	} {
		seed := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
		if err := os.WriteFile(filepath.Join("testdata", "fuzz", "FuzzFpcacheEntry", name), []byte(seed), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
