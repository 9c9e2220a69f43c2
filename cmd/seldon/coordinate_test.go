package main

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/shard"
)

// TestReadShardsNamesTheFile: a -shards-in glob is a list of paths, so a
// fault the merge finds — not only one the decoder finds — must say which
// path it was reading. q1.shard repeats slice 1 under another name;
// stale.shard is slice 1 as an older front-end would have written it.
func TestReadShardsNamesTheFile(t *testing.T) {
	files := corpus.Generate(corpus.Config{Files: 8}).FileMap()
	dir := t.TempDir()
	write := func(name string, slice int, analyzer string) string {
		a, _, err := shard.BuildFromCorpus(files, slice, 2, core.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if analyzer != "" {
			a.AnalyzerVersion = analyzer
		}
		path := filepath.Join(dir, name)
		if _, err := shard.WriteFile(path, a); err != nil {
			t.Fatal(err)
		}
		return path
	}
	p0, p1 := write("p0.shard", 0, ""), write("p1.shard", 1, "")
	q1, stale := write("q1.shard", 1, ""), write("stale.shard", 1, "seldon-frontend-v0")

	if _, err := readShards([]string{p0, p1}, shard.ReadOptions{}, shard.MergeOptions{}); err != nil {
		t.Fatalf("readShards over a complete set: %v", err)
	}
	for _, tc := range []struct {
		paths []string
		want  error
		named string
	}{
		{[]string{p0, p1, q1}, shard.ErrDuplicateSlice, "q1.shard"},
		{[]string{p0, stale}, shard.ErrAnalyzerVersion, "stale.shard"},
	} {
		_, err := readShards(tc.paths, shard.ReadOptions{}, shard.MergeOptions{})
		if !errors.Is(err, tc.want) {
			t.Errorf("readShards = %v, want %v", err, tc.want)
		} else if !strings.Contains(err.Error(), tc.named) {
			t.Errorf("readShards = %q, which does not name %s", err, tc.named)
		}
	}
}
