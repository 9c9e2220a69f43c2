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
// version 3: the record of app.py with a parse error) must decode and
// re-encode to the same bytes. UPDATE_GOLDEN=1 rewrites it and the
// FuzzFpcacheEntry seeds made from it — only a codec or analyzer version
// bump should need that.
func TestFixtureRoundTrip(t *testing.T) {
	path := filepath.Join("testdata", "entry.fpc")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		rec := testRecord(t)
		writeEntrySeeds(t, rec)
		rec.ParseError = "app.py:3:1: unexpected token"
		if err := os.WriteFile(path, appendEntry(rec), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, e, err := decodeEntry(data)
	if err != nil {
		t.Fatalf("decode fixture: %v", err)
	}
	if rec.Name != "app.py" || e.ParseError == "" || e.Cost == 0 || len(e.Graph.Events) == 0 {
		t.Fatalf("fixture decoded to an empty entry: %+v", e)
	}
	if !bytes.Equal(appendEntry(&rec), data) {
		t.Fatal("fixture does not re-encode to its own bytes")
	}
}

// writeEntrySeeds writes FuzzFpcacheEntry's seeds: bodies of the entry of
// rec without a parse error and with the fixture's, and of entries no
// encoder writes — another codec version, a cost past the largest
// duration, a byte after the record.
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
	hugeCost := *clean
	hugeCost.Cost = -1 // written as the uvarint 1<<64 - 1
	for name, b := range map[string][]byte{
		"clean_entry":     body(clean),
		"parse_error":     body(&withError),
		"codec_version_1": oldVersion,
		"negative_cost":   body(&hugeCost),
		"trailing_byte":   append(bytes.Clone(body(clean)), 0),
	} {
		seed := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
		if err := os.WriteFile(filepath.Join("testdata", "fuzz", "FuzzFpcacheEntry", name), []byte(seed), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
