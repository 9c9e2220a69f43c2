package constraints_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"seldon/internal/constraints"
	"seldon/internal/corpus"
)

// TestFlowCacheFixtureRoundTrip pins the file format:
// testdata/flowcache.bin was written by the code as it stood before
// internal/envelope existed, and must load and save back to the same
// bytes. UPDATE_GOLDEN=1 rewrites it — only a format or analyzer
// version bump should need that.
func TestFlowCacheFixtureRoundTrip(t *testing.T) {
	path := filepath.Join("testdata", "flowcache.bin")
	opts := constraints.Options{Workers: 1}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		files := corpus.Generate(corpus.Config{Files: 6, Seed: 5}).FileMap()
		_, _, union, spans := corpusSpans(t, files, 1)
		cache := constraints.NewFlowCache()
		constraints.BuildIncremental(union, corpus.ExperimentSeed(), opts, spans, cache)
		if err := cache.Save(path, opts); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cache, ok := constraints.LoadFlowCache(path, opts)
	if !ok || cache.Len() == 0 {
		t.Fatalf("fixture loaded as ok=%v with %d blocks", ok, cache.Len())
	}
	out := filepath.Join(t.TempDir(), "flowcache.bin")
	if err := cache.Save(out, opts); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(out); !bytes.Equal(got, data) {
		t.Fatal("fixture does not save back to its own bytes")
	}
}
