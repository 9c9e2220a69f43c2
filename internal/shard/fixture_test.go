package shard

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"seldon/internal/core"
	"seldon/internal/propgraph"
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
	if _, err := streamDecode(data); err != nil {
		t.Fatalf("decode fixture: %v", err)
	}

	// A decoded Artifact does not keep its per-file graphs, so the
	// re-encoding is assembled from the section stream.
	r := NewReader(bytes.NewReader(data))
	hdr, err := r.Header()
	if err != nil {
		t.Fatal(err)
	}
	if !hdr.Sidecar || hdr.NumFiles == 0 {
		t.Fatalf("fixture header %+v: want a sidecar and at least one file", hdr)
	}
	a := &Artifact{AnalyzerVersion: hdr.AnalyzerVersion, Slice: hdr.Slice, Slices: hdr.Slices,
		Sidecar: hdr.Sidecar, Graph: propgraph.New()}
	for {
		sec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		a.Files = append(a.Files, sec.Meta)
		a.FileGraphs = append(a.FileGraphs, sec.Graph)
		a.SidecarKeys = append(a.SidecarKeys, sec.Key)
		a.SidecarCosts = append(a.SidecarCosts, sec.Cost)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Encode(), data) {
		t.Fatal("fixture does not re-encode to its own bytes")
	}
}
