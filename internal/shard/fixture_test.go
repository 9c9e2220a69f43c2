package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"seldon/internal/core"
	"seldon/internal/envelope"
	"seldon/internal/fpcache"
	"seldon/internal/propgraph"
)

// TestFixtureRoundTrip pins the wire format: testdata/slice.shard (codec
// version 3: slice 1 of 2 of a four-file corpus, sidecar attached) must
// stream-decode and re-encode to the same bytes. UPDATE_GOLDEN=1 rewrites
// it and the FuzzReadArtifact seeds made from it — only a codec or
// analyzer version bump should need that.
func TestFixtureRoundTrip(t *testing.T) {
	path := filepath.Join("testdata", "slice.shard")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		files := testFiles(t, 4)
		a, _, err := Build(core.SliceFiles(files, 1, 2), 1, 2, core.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Fixed costs, so that re-recording an unchanged format gives the
		// same bytes: the front end's are wall-clock times.
		for i := range a.Files {
			a.Files[i].Cost = time.Duration(i+1) * time.Millisecond
		}
		a.Sidecar = true
		if err := os.WriteFile(path, a.Encode(), 0o644); err != nil {
			t.Fatal(err)
		}
		writeArtifactSeeds(t, a, buildSlice(t, files, 0, 2))
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

// writeArtifactSeeds writes FuzzReadArtifact's seeds: the payloads of the
// fixture and of another slice without a sidecar, and of payloads no
// encoder writes or a merge cannot take — an empty manifest, an unsorted
// one, a byte after the last section.
func writeArtifactSeeds(t *testing.T, fixture, noSidecar *Artifact) {
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
		b = append(b, 0, 1, 0) // slice 0 of 1, no flags
		return binary.AppendUvarint(b, uint64(files))
	}
	empty := new(propgraph.Builder).Build().AppendBinary(nil)
	section := func(b []byte, name string) []byte {
		return fpcache.AppendRecord(b, &fpcache.Record{Name: name, Graph: empty})
	}
	for name, b := range map[string][]byte{
		"fixture_slice_shard":      payload(fixture),
		"two_files_no_sidecar":     payload(noSidecar),
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
