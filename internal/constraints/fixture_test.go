package constraints_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"seldon/internal/constraints"
	"seldon/internal/corpus"
	"seldon/internal/envelope"
	"seldon/internal/fpcache"
)

// TestFlowCacheFixtureRoundTrip pins the file format:
// testdata/flowcache.bin (version 2) must be what Save writes for its
// corpus today, and must load and save back to the same bytes.
// UPDATE_GOLDEN=1 rewrites it and the FuzzLoadFlowCache seeds made from it
// — only a format or analyzer version bump should need that.
func TestFlowCacheFixtureRoundTrip(t *testing.T) {
	path := filepath.Join("testdata", "flowcache.bin")
	opts := constraints.Options{Workers: 1}
	files := corpus.Generate(corpus.Config{Files: 6, Seed: 5}).FileMap()
	_, _, union, spans := corpusSpans(t, files, 1)
	fresh := constraints.NewFlowCache()
	constraints.BuildIncremental(union, corpus.ExperimentSeed(), opts, spans, fresh)
	freshPath := filepath.Join(t.TempDir(), "flowcache.bin")
	if err := fresh.Save(freshPath, opts); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(freshPath)
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		writeFlowCacheSeeds(t, path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, data) {
		t.Fatal("the code writes another flow cache than testdata/flowcache.bin: run make fixtures if the format moved on purpose")
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

// writeFlowCacheSeeds writes FuzzLoadFlowCache's seeds under the header
// of the fixture at path: its body, an empty cache, two blocks in order,
// two out of order, one name twice, and a block whose one constraint
// claims more terms than the bytes left hold.
func writeFlowCacheSeeds(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := data[len("SFLC") : len(data)-envelope.ChecksumSize]
	// Version, analyzer version, C, λ and cutoff.
	head := body[:8+8+len(fpcache.AnalyzerVersion)+3*8]
	// A block: a name, a zero fingerprint, counts 0, 1, 2 and 3 skipped,
	// and no constraint.
	block := func(name string) []byte {
		b := envelope.AppendBytes64(nil, name)
		b = append(b, make([]byte, 32)...)
		for _, n := range []uint64{0, 1, 2, 3, 0} {
			b = envelope.AppendU64(b, n)
		}
		return b
	}
	cache := func(blocks ...[]byte) []byte {
		b := envelope.AppendU64(bytes.Clone(head), uint64(len(blocks)))
		return append(b, bytes.Join(blocks, nil)...)
	}
	hostile := block("a.py")
	hostile = envelope.AppendU64(hostile[:len(hostile)-8], 1) // one constraint
	hostile = envelope.AppendU64(hostile, 1<<40)              // of 1<<40 terms
	hostile = append(hostile, make([]byte, 40)...)
	seeds := map[string][]byte{
		"fixture_flowcache_bin": body,
		"empty_cache":           cache(),
		"two_blocks":            cache(block("a.py"), block("b.py")),
		"blocks_out_of_order":   cache(block("b.py"), block("a.py")),
		"name_twice":            cache(block("a.py"), block("a.py")),
		"hostile_term_count":    cache(hostile),
	}
	for name, b := range seeds {
		seed := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
		if err := os.WriteFile(filepath.Join("testdata", "fuzz", "FuzzLoadFlowCache", name), []byte(seed), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
