package shard

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/envelope"
	"seldon/internal/fpcache"
	"seldon/internal/propgraph"
)

// buildSlice analyzes slice i of n of a small synthetic corpus.
func buildSlice(t *testing.T, files map[string]string, i, n int) *Artifact {
	t.Helper()
	a, _, err := BuildFromCorpus(files, i, n, core.Config{Workers: 1})
	if err != nil {
		t.Fatalf("BuildFromCorpus(%d/%d): %v", i, n, err)
	}
	return a
}

// mergeAll commits arts to one Merger in the order given and finishes it:
// the barrier form of the coordinator's ingest loop.
func mergeAll(arts []*Artifact, opts MergeOptions) (*MergeResult, error) {
	m := NewMerger(opts)
	for _, a := range arts {
		if err := m.Commit(a); err != nil {
			return nil, err
		}
	}
	return m.Finish()
}

func testFiles(t *testing.T, n int) map[string]string {
	t.Helper()
	return corpus.Generate(corpus.Config{Files: n}).FileMap()
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	files := testFiles(t, 20)
	want := buildSlice(t, files, 1, 3)
	data := want.Encode()

	got, err := streamDecode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.AnalyzerVersion != want.AnalyzerVersion {
		t.Errorf("analyzer version %q, want %q", got.AnalyzerVersion, want.AnalyzerVersion)
	}
	if got.Slice != want.Slice || got.Slices != want.Slices {
		t.Errorf("slice %d/%d, want %d/%d", got.Slice, got.Slices, want.Slice, want.Slices)
	}
	if got.Size != int64(len(data)) {
		t.Errorf("Size = %d, want %d", got.Size, len(data))
	}
	if len(got.Files) != len(want.Files) {
		t.Fatalf("%d manifest entries, want %d", len(got.Files), len(want.Files))
	}
	for i := range got.Files {
		// Without the sidecar no cost travels.
		shipped := want.Files[i]
		shipped.Cost = 0
		if !sameFile(got.Files[i], shipped) {
			t.Errorf("manifest[%d] = %+v, want %+v", i, got.Files[i], shipped)
		}
	}
	if !bytes.Equal(propgraph.Union(got.FileGraphs...).AppendBinary(nil), want.Graph.AppendBinary(nil)) {
		t.Error("union of the decoded graphs differs from the encoded slice's")
	}

	// Encoding is a pure function of the artifact.
	if !bytes.Equal(want.Encode(), data) {
		t.Error("Encode is not deterministic")
	}
}

func TestWriteFileReadFile(t *testing.T) {
	files := testFiles(t, 12)
	want := buildSlice(t, files, 0, 2)
	path := filepath.Join(t.TempDir(), "part0.shard")
	n, err := WriteFile(path, want)
	if err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != n {
		t.Fatalf("wrote %d bytes, stat says %v, %v", n, fi, err)
	}
	got, err := ReadFile(path, ReadOptions{})
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(propgraph.Union(got.FileGraphs...).AppendBinary(nil), want.Graph.AppendBinary(nil)) {
		t.Error("graph round-trip through file differs")
	}
	// No temp droppings from the atomic write.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want just the artifact", len(entries))
	}
}

// TestDecodeFaults checks that every way an artifact can be damaged in
// transit maps to its own named error — never a silent skip, never the
// wrong sentinel.
func TestDecodeFaults(t *testing.T) {
	files := testFiles(t, 12)
	good := buildSlice(t, files, 0, 1).Encode()

	corrupt := func(mutate func([]byte) []byte) []byte {
		data := append([]byte(nil), good...)
		return mutate(data)
	}
	tests := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"shorter than magic", corrupt(func(d []byte) []byte { return d[:2] }), ErrTruncated},
		{"header cut", corrupt(func(d []byte) []byte { return d[:5] }), ErrTruncated},
		{"payload cut", corrupt(func(d []byte) []byte { return d[:len(d)/2] }), ErrTruncated},
		{"checksum cut", corrupt(func(d []byte) []byte { return d[:len(d)-1] }), ErrTruncated},
		{"bad magic", corrupt(func(d []byte) []byte { d[0] = 'X'; return d }), ErrMagic},
		{"stale codec version", corrupt(func(d []byte) []byte { d[4] = codecVersion + 1; return d }), ErrCodecVersion},
		{"flipped payload byte", corrupt(func(d []byte) []byte { d[len(d)/2] ^= 0x40; return d }), ErrChecksum},
		{"flipped checksum byte", corrupt(func(d []byte) []byte { d[len(d)-1] ^= 0x01; return d }), ErrChecksum},
		{"trailing bytes", corrupt(func(d []byte) []byte { return append(d, 0xEE) }), ErrTrailing},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			a, err := streamDecode(tc.data)
			if a != nil {
				t.Fatal("damaged artifact decoded to a non-nil result")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Decode = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestDecodeBadPayload covers the checksum-holds-but-payload-is-garbage
// class: a buggy or adversarial encoder, not line noise.
func TestDecodeBadPayload(t *testing.T) {
	out := func(a *Artifact) []byte { return a.Encode() }
	empty := new(propgraph.Builder).Build()
	file := func(name string) FileMeta {
		return newFileMeta(fpcache.Record{Name: name, Graph: empty.AppendBinary(nil)})
	}
	// A cost is the sidecar: an artifact without one cannot carry it.
	costly := envelope.AppendBytesV(nil, "v")
	costly = append(costly, 0, 1, 0, 1) // slice 0 of 1, no flags, one file
	costly = fpcache.AppendRecord(costly, &fpcache.Record{Name: "a.py", Cost: 1, Graph: empty.AppendBinary(nil)})
	tests := []struct {
		name string
		data []byte
	}{
		{"slice out of range", out(&Artifact{AnalyzerVersion: "v", Slice: 5, Slices: 2, Graph: empty})},
		{"zero slices", out(&Artifact{AnalyzerVersion: "v", Slice: 0, Slices: 0, Graph: empty})},
		{"unsorted manifest", out(&Artifact{
			AnalyzerVersion: "v", Slice: 0, Slices: 1,
			Files:      []FileMeta{file("b.py"), file("a.py")},
			FileGraphs: []*propgraph.Graph{empty, empty},
			Graph:      empty,
		})},
		{"cost without sidecar", seal(costly)},
		{"duplicate manifest name", out(&Artifact{
			AnalyzerVersion: "v", Slice: 0, Slices: 1,
			Files:      []FileMeta{file("a.py"), file("a.py")},
			FileGraphs: []*propgraph.Graph{empty, empty},
			Graph:      empty,
		})},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := streamDecode(tc.data); !errors.Is(err, ErrEncoding) {
				t.Fatalf("Decode = %v, want ErrEncoding", err)
			}
		})
	}
}

// TestMergeFaults checks the set-level validation: slice bookkeeping
// violations each get their own sentinel.
func TestMergeFaults(t *testing.T) {
	files := testFiles(t, 20)
	a0 := buildSlice(t, files, 0, 2)
	a1 := buildSlice(t, files, 1, 2)

	t.Run("duplicate slice", func(t *testing.T) {
		if _, err := mergeAll([]*Artifact{a0, a0}, MergeOptions{}); !errors.Is(err, ErrDuplicateSlice) {
			t.Fatalf("Merge = %v, want ErrDuplicateSlice", err)
		}
	})
	t.Run("missing slice", func(t *testing.T) {
		if _, err := mergeAll([]*Artifact{a0}, MergeOptions{}); !errors.Is(err, ErrMissingSlice) {
			t.Fatalf("Merge = %v, want ErrMissingSlice", err)
		}
	})
	t.Run("no artifacts", func(t *testing.T) {
		if _, err := mergeAll(nil, MergeOptions{}); !errors.Is(err, ErrMissingSlice) {
			t.Fatalf("Merge = %v, want ErrMissingSlice", err)
		}
	})
	t.Run("slice count mismatch", func(t *testing.T) {
		b0 := buildSlice(t, files, 0, 3)
		if _, err := mergeAll([]*Artifact{a0, b0}, MergeOptions{}); !errors.Is(err, ErrSliceCount) {
			t.Fatalf("Merge = %v, want ErrSliceCount", err)
		}
	})
	t.Run("analyzer version mismatch", func(t *testing.T) {
		stale := *a1
		stale.AnalyzerVersion = "seldon-frontend-v0"
		if _, err := mergeAll([]*Artifact{a0, &stale}, MergeOptions{}); !errors.Is(err, ErrAnalyzerVersion) {
			t.Fatalf("Merge = %v, want ErrAnalyzerVersion", err)
		}
	})
	t.Run("slice order violation", func(t *testing.T) {
		// Swap the claimed indices: each artifact is internally sorted,
		// but their concatenation in "slice order" is not.
		x0, x1 := *a0, *a1
		x0.Slice, x1.Slice = 1, 0
		if _, err := mergeAll([]*Artifact{&x0, &x1}, MergeOptions{}); !errors.Is(err, ErrSliceOrder) {
			t.Fatalf("Merge = %v, want ErrSliceOrder", err)
		}
	})
	t.Run("per-file graph facts missing", func(t *testing.T) {
		short := *a1
		short.FileGraphs = a1.FileGraphs[:len(a1.FileGraphs)-1]
		if _, err := mergeAll([]*Artifact{a0, &short}, MergeOptions{}); !errors.Is(err, ErrEncoding) {
			t.Fatalf("Merge = %v, want ErrEncoding", err)
		}
	})
	t.Run("per-file graphs missing", func(t *testing.T) {
		bare := *a1
		bare.FileGraphs = nil
		if _, err := mergeAll([]*Artifact{a0, &bare}, MergeOptions{}); !errors.Is(err, ErrEncoding) {
			t.Fatalf("Merge = %v, want ErrEncoding", err)
		}
	})
	t.Run("valid set still merges", func(t *testing.T) {
		res, err := mergeAll([]*Artifact{a1, a0}, MergeOptions{}) // arrival order irrelevant
		if err != nil {
			t.Fatalf("Merge: %v", err)
		}
		if len(res.Files) != len(files) {
			t.Errorf("merged %d files, want %d", len(res.Files), len(files))
		}
	})
}

func TestBuildRejectsBadSlice(t *testing.T) {
	files := testFiles(t, 8)
	for _, c := range [][2]int{{-1, 2}, {2, 2}, {0, 0}} {
		if _, _, err := Build(files, c[0], c[1], core.Config{Workers: 1}); err == nil {
			t.Errorf("Build(%d, %d) succeeded, want error", c[0], c[1])
		}
	}
}

func TestBuildAnalyzerVersion(t *testing.T) {
	files := testFiles(t, 8)
	a := buildSlice(t, files, 0, 1)
	if a.AnalyzerVersion != fpcache.AnalyzerVersion {
		t.Errorf("artifact carries analyzer version %q, want %q", a.AnalyzerVersion, fpcache.AnalyzerVersion)
	}
}
