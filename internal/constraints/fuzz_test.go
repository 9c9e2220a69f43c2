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

// FuzzLoadFlowCache holds the flow-cache loader to the files Save writes.
// The input is a body — everything between the magic and the checksum —
// which the target frames and seals, so that mutations reach the parser.
// The file loads as empty (ok false, no blocks), or Save of what loaded
// writes the sealed bytes back: no two files load as the same cache, so a
// repeated or unsorted block name, which Save cannot have written, is a
// miss like every other fault. There is never a panic, and load and save
// together allocate at most 16 bytes per body byte, whatever counts the
// body declares (measured: 3.9 per byte for the fixture's body, 1.6 KB for
// an empty cache). The seeds (testdata/fuzz) are the body of
// testdata/flowcache.bin, an empty cache, two blocks in order, two out of
// order, one name twice, and a term count larger than the bytes left.
func FuzzLoadFlowCache(f *testing.F) {
	dir := f.TempDir()
	in, out := filepath.Join(dir, "in.bin"), filepath.Join(dir, "out.bin")
	opts := constraints.Options{Workers: 1}
	f.Fuzz(func(t *testing.T, body []byte) {
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
			return
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
	})
}
