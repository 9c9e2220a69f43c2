package core

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seldon/internal/corpus"
	"seldon/internal/propgraph"
)

// TestOneGraphIsItsUnion pins what FrontEnd.Union's shortcut rests on:
// every graph the front end returns, over a generated corpus and over
// `seldon check`'s golden inputs, encodes (AppendBinary) to the same
// bytes as propgraph.Union over it alone — and so does the same graph
// after a decode, which is what a cache hit hands back.
func TestOneGraphIsItsUnion(t *testing.T) {
	files := corpus.Generate(corpus.Config{Files: 400, Seed: 3}).FileMap()
	root := filepath.Join("..", "..", "cmd", "seldon", "testdata", "check", "corpus")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".py") {
			return err
		}
		src, err := os.ReadFile(path)
		files["golden/"+filepath.ToSlash(path[len(root)+1:])] = string(src)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	fe := AnalyzeFiles(files, Config{})
	for i, g := range fe.Graphs {
		want := g.AppendBinary(nil)
		if got := propgraph.Union(g).AppendBinary(nil); !bytes.Equal(got, want) {
			t.Errorf("%s: the union of its graph alone encodes to %d bytes, the graph to %d", fe.Names[i], len(got), len(want))
		}
		d, _, err := propgraph.DecodeBinary(want)
		if err != nil {
			t.Fatalf("%s: %v", fe.Names[i], err)
		}
		if got := propgraph.Union(d).AppendBinary(nil); !bytes.Equal(got, want) {
			t.Errorf("%s: the union of its decoded graph alone differs from the graph", fe.Names[i])
		}
		one := &FrontEnd{Graphs: fe.Graphs[i : i+1]}
		if one.Union() != g {
			t.Errorf("%s: a one-file front end's Union is not its graph", fe.Names[i])
		}
	}
	if got, want := fe.Union().AppendBinary(nil), propgraph.Union(fe.Graphs...).AppendBinary(nil); !bytes.Equal(got, want) {
		t.Error("FrontEnd.Union over many files differs from propgraph.Union")
	}
}
