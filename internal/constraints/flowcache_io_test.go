package constraints_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"seldon/internal/constraints"
	"seldon/internal/corpus"
	"seldon/internal/envelope"
	"seldon/internal/fpcache"
)

// TestFlowCacheSaveLoadRoundTrip: a populated cache persisted and
// reloaded must drive a second incremental build to the byte-identical
// system with every span reused — cross-process warmth, not just
// cross-call warmth.
func TestFlowCacheSaveLoadRoundTrip(t *testing.T) {
	files := corpus.Generate(corpus.Config{Files: 12, Seed: 7}).FileMap()
	seed := corpus.ExperimentSeed()
	opts := constraints.Options{Workers: 1}
	_, _, union, spans := corpusSpans(t, files, 1)

	cache := constraints.NewFlowCache()
	cold, st := constraints.BuildIncremental(union, seed, opts, spans, cache)
	if st.FellBack || st.SpansRebuilt != len(spans) {
		t.Fatalf("cold build: %+v", st)
	}
	want := encodeSystem(cold)

	path := filepath.Join(t.TempDir(), "flowcache.bin")
	if err := cache.Save(path, opts); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, ok := constraints.LoadFlowCache(path, opts)
	if !ok {
		t.Fatal("LoadFlowCache rejected its own Save")
	}
	if loaded.Len() != cache.Len() {
		t.Fatalf("loaded %d blocks, saved %d", loaded.Len(), cache.Len())
	}

	warm, st2 := constraints.BuildIncremental(union, seed, opts, spans, loaded)
	if st2.SpansReused != len(spans) || st2.SpansRebuilt != 0 {
		t.Fatalf("warm-from-disk build reused %d/%d spans, rebuilt %d",
			st2.SpansReused, st2.Spans, st2.SpansRebuilt)
	}
	if !bytes.Equal(encodeSystem(warm), want) {
		t.Fatal("system built from the persisted cache differs from the original")
	}

	// Save is deterministic: same cache, same bytes.
	path2 := filepath.Join(t.TempDir(), "flowcache2.bin")
	if err := loaded.Save(path2, opts); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(path)
	b2, _ := os.ReadFile(path2)
	if !bytes.Equal(b1, b2) {
		t.Error("Save is not deterministic across a load round-trip")
	}
}

// TestFlowCacheFileListsRepeatsOnce: a cache whose blocks repeat
// constraints loads back to blocks
// equal to its own, and its file spends a few bytes a constraint — the
// repeats are indices into one table of distinct constraints, not copies
// at 16 bytes a term.
func TestFlowCacheFileListsRepeatsOnce(t *testing.T) {
	files := corpus.Generate(corpus.Config{Files: 400, Seed: 1}).FileMap()
	opts := constraints.Options{Workers: 2}
	_, _, union, spans := corpusSpans(t, files, 2)
	cache := constraints.NewFlowCache()
	constraints.BuildIncremental(union, corpus.ExperimentSeed(), opts, spans, cache)
	want := cache.SavedBlocks()
	total, distinct := 0, map[string]bool{}
	for _, b := range want {
		for _, c := range b.Constraints() {
			total++
			distinct[fmt.Sprint(c)] = true
		}
	}
	if len(distinct) == total {
		t.Fatalf("no constraint of %d repeats: nothing to test", total)
	}

	path := filepath.Join(t.TempDir(), "flowcache.bin")
	if err := cache.Save(path, opts); err != nil {
		t.Fatal(err)
	}
	loaded, ok := constraints.LoadFlowCache(path, opts)
	if !ok {
		t.Fatal("LoadFlowCache rejected its own Save")
	}
	if got := loaded.SavedBlocks(); !reflect.DeepEqual(got, want) {
		t.Fatal("the loaded blocks differ from the saved ones")
	}
	// Fixed-width terms took at least 48 bytes a constraint (two counts
	// and a term a side).
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	perCons := float64(info.Size()) / float64(total)
	t.Logf("%d bytes for %d constraints, %d distinct: %.1f a constraint", info.Size(), total, len(distinct), perCons)
	if perCons > 12 {
		t.Errorf("%d bytes for %d constraints: %.1f a constraint, want at most 12", info.Size(), total, perCons)
	}
	// A cache of real size keeps FuzzLoadFlowCache's allocation bound.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !checkLoadSave(t, t.TempDir(), data[len("SFLC"):len(data)-envelope.ChecksumSize]) {
		t.Fatal("the saved cache's body does not load")
	}
}

// TestFlowCacheDenseBodiesKeepTheBound holds FuzzLoadFlowCache's property
// and allocation bound (checkLoadSave) on bodies of tens of kilobytes that
// are each as dense in one thing as the format allows — where fuzzing from
// the seeds does not reach: one constraint listed 20,000 times, 20,000
// distinct constraints listed once, 5,000 coefficients used once each,
// and 2,000 blocks with no constraints.
func TestFlowCacheDenseBodiesKeepTheBound(t *testing.T) {
	// An empty cache's body is the header and three zero counts.
	empty := filepath.Join(t.TempDir(), "empty.bin")
	if err := constraints.NewFlowCache().Save(empty, constraints.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(empty)
	if err != nil {
		t.Fatal(err)
	}
	head := data[len("SFLC") : len(data)-envelope.ChecksumSize-3]
	uv := binary.AppendUvarint
	// body lists k coefficients 1..k, the constraints made by cons (each
	// appended to the bytes it is given), and one block a.py with the
	// constraint indices refs, then empty blocks more empty blocks.
	body := func(k int, cons []func([]byte) []byte, refs []int, empty int) []byte {
		b := uv(bytes.Clone(head), uint64(k))
		for i := range k {
			b = envelope.AppendF64(b, float64(i+1))
		}
		b = uv(b, uint64(len(cons)))
		for _, c := range cons {
			b = c(b)
		}
		b = uv(b, uint64(1+empty))
		block := func(name string, refs []int) {
			b = append(envelope.AppendBytesV(b, name), make([]byte, 32)...)
			b = uv(append(b, 0, 0, 0, 0), uint64(len(refs)))
			for _, r := range refs {
				b = uv(b, uint64(r))
			}
		}
		block("a.py", refs)
		for i := range empty {
			block(fmt.Sprintf("b%06d.py", i), nil)
		}
		return b
	}
	// term is the constraint whose LHS is the term (x_v, coefficient i)
	// and whose RHS is empty.
	term := func(v, i int) func([]byte) []byte {
		return func(b []byte) []byte { return append(uv(uv(append(b, 1), uint64(v)), uint64(i)), 0) }
	}
	const n = 20000
	upTo := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	distinct, coefs := make([]func([]byte) []byte, n), make([]func([]byte) []byte, n/4)
	for i := range distinct {
		distinct[i] = term(i, 0)
	}
	for i := range coefs {
		coefs[i] = term(0, i)
	}
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"one constraint listed often", body(1, distinct[:1], make([]int, n), 0)},
		{"distinct constraints", body(1, distinct, upTo(n), 0)},
		{"coefficients", body(n/4, coefs, upTo(n/4), 0)},
		{"empty blocks", body(0, nil, nil, n/10)},
	} {
		if !checkLoadSave(t, t.TempDir(), c.body) {
			t.Errorf("%s: the %d-byte body does not load", c.name, len(c.body))
		}
	}
}

// TestLoadFlowCacheRejects mirrors the incr state 4-way rejection: a
// stale analyzer version, skewed knobs, a corrupted trailer, and a
// truncated file must each load as an empty cache (miss) — never an
// error, never a poisoned cache.
func TestLoadFlowCacheRejects(t *testing.T) {
	files := corpus.Generate(corpus.Config{Files: 8, Seed: 3}).FileMap()
	seed := corpus.ExperimentSeed()
	opts := constraints.Options{Workers: 1}
	_, _, union, spans := corpusSpans(t, files, 1)
	cache := constraints.NewFlowCache()
	constraints.BuildIncremental(union, seed, opts, spans, cache)
	if cache.Len() == 0 {
		t.Fatal("fixture cache is empty")
	}

	dir := t.TempDir()
	good := filepath.Join(dir, "flowcache.bin")
	if err := cache.Save(good, opts); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	writeVariant := func(t *testing.T, b []byte) string {
		t.Helper()
		p := filepath.Join(t.TempDir(), "variant.bin")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	expectEmpty := func(t *testing.T, path string, loadOpts constraints.Options) {
		t.Helper()
		c, ok := constraints.LoadFlowCache(path, loadOpts)
		if ok {
			t.Error("LoadFlowCache accepted a skewed file")
		}
		if c == nil || c.Len() != 0 {
			t.Errorf("skewed load returned a non-empty cache (%d blocks)", c.Len())
		}
	}

	t.Run("missing file", func(t *testing.T) {
		expectEmpty(t, filepath.Join(dir, "nope.bin"), opts)
	})
	t.Run("corrupted trailer", func(t *testing.T) {
		b := append([]byte(nil), data...)
		b[len(b)-1] ^= 0x01
		expectEmpty(t, writeVariant(t, b), opts)
	})
	t.Run("corrupted body", func(t *testing.T) {
		b := append([]byte(nil), data...)
		b[len(b)/2] ^= 0x40
		expectEmpty(t, writeVariant(t, b), opts)
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 3, len(data) / 2, len(data) - 1} {
			expectEmpty(t, writeVariant(t, data[:n]), opts)
		}
	})
	t.Run("stale analyzer version", func(t *testing.T) {
		// Patch the embedded analyzer-version bytes in place and re-seal
		// the checksum: only the version check can catch this one.
		av := []byte(fpcache.AnalyzerVersion)
		i := bytes.Index(data, av)
		if i < 0 {
			t.Fatal("analyzer version not found in file")
		}
		b := append([]byte(nil), data...)
		b[i] ^= 0x20
		expectEmpty(t, writeVariant(t, resealFlowCache(b)), opts)
	})
	t.Run("knob mismatch", func(t *testing.T) {
		skew := opts
		skew.BackoffCutoff = 7
		expectEmpty(t, good, skew)
		skew = opts
		skew.Lambda = 0.5
		expectEmpty(t, good, skew)
	})
	t.Run("good file still loads", func(t *testing.T) {
		if _, ok := constraints.LoadFlowCache(good, opts); !ok {
			t.Fatal("pristine file rejected")
		}
	})
}

// resealFlowCache recomputes the sha256 trailer after an in-place body
// patch, so a test can present an internally-consistent file that is
// wrong about the world (stale analyzer version) rather than corrupt.
func resealFlowCache(b []byte) []byte {
	body := b[:len(b)-sha256.Size]
	sum := sha256.Sum256(body)
	return append(body, sum[:]...)
}
