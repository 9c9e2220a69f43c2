package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"seldon/internal/envelope"
	"seldon/internal/fpcache"
	"seldon/internal/propgraph"
)

// TestFixtureRoundTrip pins the wire format: testdata/slice.shard (codec
// version 4: slice 1 of 2 of a four-file corpus) must be what Build and
// Encode write for that slice today, and must stream-decode and re-encode
// to the same bytes. UPDATE_GOLDEN=1 rewrites it and the FuzzReadArtifact
// seeds made from it — only a codec or analyzer version bump should need
// that.
func TestFixtureRoundTrip(t *testing.T) {
	path := filepath.Join("testdata", "slice.shard")
	files := testFiles(t, 4)
	fresh := buildSlice(t, files, 1, 2)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, fresh.Encode(), 0o644); err != nil {
			t.Fatal(err)
		}
		writeArtifactSeeds(t, fresh, buildSlice(t, files, 0, 2))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Encode(), data) {
		t.Fatal("the code writes another artifact than testdata/slice.shard: run make fixtures if the format moved on purpose")
	}
	a, err := streamDecode(data)
	if err != nil {
		t.Fatalf("decode fixture: %v", err)
	}
	if len(a.Files) == 0 {
		t.Fatal("fixture has no files")
	}
	if !bytes.Equal(a.Encode(), data) {
		t.Fatal("fixture does not re-encode to its own bytes")
	}
}

// writeArtifactSeeds writes FuzzReadArtifact's seeds: the payloads of the
// fixture and of the other slice, and of payloads no encoder writes or a
// merge cannot take — an empty manifest, an unsorted one, a byte after
// the last section.
func writeArtifactSeeds(t *testing.T, fixture, other *Artifact) {
	t.Helper()
	payload := func(a *Artifact) []byte {
		p, err := openFrame(a.Encode())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	header := func(files int) []byte {
		b := envelope.AppendBytesV(nil, fpcache.AnalyzerVersion)
		b = append(b, 0, 1) // slice 0 of 1
		return binary.AppendUvarint(b, uint64(files))
	}
	empty := new(propgraph.Builder).Build().AppendBinary(nil)
	section := func(b []byte, name string) []byte {
		return fpcache.AppendRecord(b, &fpcache.Record{Name: name, Graph: empty})
	}
	for name, b := range map[string][]byte{
		"fixture_slice_shard":      payload(fixture),
		"two_files_slice_0_of_2":   payload(other),
		"empty_manifest":           header(0),
		"unsorted_manifest":        section(section(header(2), "b.py"), "a.py"),
		"bytes_after_last_section": append(section(header(1), "a.py"), 0),
	} {
		seed := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
		if err := os.WriteFile(filepath.Join("testdata", "fuzz", "FuzzReadArtifact", name), []byte(seed), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
