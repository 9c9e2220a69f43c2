package constraints_test

import (
	"bytes"
	"encoding/binary"
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
// testdata/flowcache.bin (version 3) must be what Save writes for its
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
// two out of order, one name twice, one block that lists one constraint
// 2,000 times, a block whose one constraint claims
// more terms than the bytes left hold, tables that claim more
// coefficients or constraints than the bytes left hold, a block and a term
// whose index is past the end of its table, and tables Save cannot have
// written: an entry twice, an entry never used, entries numbered out of
// first-use order.
func writeFlowCacheSeeds(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := data[len("SFLC") : len(data)-envelope.ChecksumSize]
	// Version, analyzer version, C, λ and cutoff.
	head := body[:8+8+len(fpcache.AnalyzerVersion)+3*8]
	uv := binary.AppendUvarint
	// tables is a table of the coefficients coefs and a table of the
	// constraints cons, each {a, i, b, j} the constraint whose LHS is the
	// term (xa, coefficient i) and whose RHS is (xb, coefficient j).
	tables := func(coefs []float64, cons ...[4]byte) []byte {
		b := uv(nil, uint64(len(coefs)))
		for _, c := range coefs {
			b = envelope.AppendF64(b, c)
		}
		b = uv(b, uint64(len(cons)))
		for _, c := range cons {
			b = append(b, 1, c[0], c[1], 1, c[2], c[3])
		}
		return b
	}
	one := []float64{1}
	x0x1, x1x2 := [4]byte{0, 0, 1, 0}, [4]byte{1, 0, 2, 0}
	// A block: a name, a zero fingerprint, counts 0, 1, 2 and 3 skipped,
	// and the constraint indices refs.
	block := func(name string, refs ...uint64) []byte {
		b := envelope.AppendBytesV(nil, name)
		b = append(b, make([]byte, 32)...)
		for _, n := range []uint64{0, 1, 2, 3, uint64(len(refs))} {
			b = uv(b, n)
		}
		for _, k := range refs {
			b = uv(b, k)
		}
		return b
	}
	cache := func(tables []byte, blocks ...[]byte) []byte {
		b := append(bytes.Clone(head), tables...)
		b = uv(b, uint64(len(blocks)))
		return append(b, bytes.Join(blocks, nil)...)
	}
	// A constraint of 1<<40 LHS terms in a table of one.
	hostileTerms := append(uv(uv(append(uv(nil, 1), envelope.AppendF64(nil, 1)...), 1), 1<<40), make([]byte, 40)...)
	seeds := map[string][]byte{
		"fixture_flowcache_bin":    body,
		"empty_cache":              cache(tables(nil)),
		"two_blocks":               cache(tables(one, x0x1), block("a.py", 0), block("b.py", 0, 0)),
		"blocks_out_of_order":      cache(tables(one, x0x1), block("b.py", 0), block("a.py", 0)),
		"name_twice":               cache(tables(one, x0x1), block("a.py", 0), block("a.py", 0)),
		"one_constraint_repeated":  cache(tables(one, x0x1), block("a.py", make([]uint64, 2000)...)),
		"hostile_term_count":       cache(hostileTerms, block("a.py", 0)),
		"hostile_coef_count":       cache(append(uv(nil, 1<<40), make([]byte, 40)...)),
		"hostile_constraint_count": cache(append(uv([]byte{0}, 1<<40), make([]byte, 40)...)),
		"constraint_out_of_range":  cache(tables(one, x0x1), block("a.py", 0, 1)),
		"coef_out_of_range":        cache(tables(one, [4]byte{0, 0, 1, 1}), block("a.py", 0)),
		"coef_twice":               cache(tables([]float64{1, 1}, [4]byte{0, 0, 1, 1}), block("a.py", 0)),
		"coef_unused":              cache(tables([]float64{1, 2}, x0x1), block("a.py", 0)),
		"coefs_out_of_order":       cache(tables([]float64{1, 2}, [4]byte{0, 1, 1, 0}, [4]byte{1, 1, 2, 1}), block("a.py", 0, 1)),
		"constraint_twice":         cache(tables(one, x0x1, x0x1), block("a.py", 0, 1)),
		"constraint_unused":        cache(tables(one, x0x1, x1x2), block("a.py", 0)),
		"constraints_out_of_order": cache(tables(one, x0x1, x1x2), block("a.py", 1, 0, 1)),
	}
	for name, b := range seeds {
		seed := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
		if err := os.WriteFile(filepath.Join("testdata", "fuzz", "FuzzLoadFlowCache", name), []byte(seed), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
