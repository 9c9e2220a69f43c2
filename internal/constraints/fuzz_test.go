package constraints_test

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"seldon/internal/constraints"
	"seldon/internal/envelope"
)

// FuzzLoadFlowCache holds the flow-cache loader to the files Save writes
// (checkLoadSave). The input is a body — everything between the magic and
// the checksum — which the target frames and seals, so that mutations
// reach the parser. The seeds (testdata/fuzz) are the body of
// testdata/flowcache.bin, an empty cache, two blocks in order, two out of
// order, one name twice, one block that lists one constraint 2,000 times,
// a term count, a coefficient count and a constraint count larger than
// the bytes left, a constraint index and a coefficient index past the end
// of their tables, and a coefficient and a constraint each listed twice,
// never used, and numbered out of first-use order.
func FuzzLoadFlowCache(f *testing.F) {
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, body []byte) { checkLoadSave(t, dir, body) })
}

// checkLoadSave frames and seals body as a flow cache in dir, loads it
// and reports whether it loaded. The file loads as empty (ok false, no blocks), or Save of what loaded
// writes the sealed bytes back: no two files load as the same cache, so a
// repeated or unsorted block name, which Save cannot have written, is a
// miss like every other fault. There is never a panic, and load and save
// together allocate at most 16 bytes per body byte and 64 KiB, whatever
// counts the body declares (measured: 6.6 KB for the fixture's 531-byte
// body, 9.4 a byte for a 400-file cache, 9 to 13 for the dense bodies of
// TestFlowCacheDenseBodiesKeepTheBound).
func checkLoadSave(t *testing.T, dir string, body []byte) bool {
	t.Helper()
	in, out := filepath.Join(dir, "in.bin"), filepath.Join(dir, "out.bin")
	opts := constraints.Options{Workers: 1}
	sealed := envelope.Seal(append([]byte("SFLC"), body...))
	if err := os.WriteFile(in, sealed, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, ok := constraints.LoadFlowCache(in, opts)
	if !ok {
		if n := c.Len(); n != 0 {
			t.Fatalf("a refused file loaded %d blocks", n)
		}
		return false
	}
	if err := c.Save(out, opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	// The slack covers the files' names and handles and what the test
	// binary's other goroutines allocate meanwhile.
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(16*len(body)+64<<10); got > bound {
		t.Fatalf("loading and saving %d bytes allocated %d, bound %d", len(body), got, bound)
	}
	if got, _ := os.ReadFile(out); !bytes.Equal(got, sealed) {
		t.Fatalf("loaded %d bytes that save back as %d different ones:\n in  %x\n out %x", len(sealed), len(got), sealed, got)
	}
	return true
}
