package fpcache

import (
	"bytes"
	"runtime"
	"testing"

	"seldon/internal/envelope"
)

// FuzzFpcacheEntry holds the entry decoder to the bytes EncodeRawEntry
// writes. Entries come from a directory other processes write into, and a
// coordinator writes them from the sidecar of a worker on another
// machine, so their bytes are untrusted. The input is a body — everything
// between the magic and the checksum — which the target frames and seals,
// so that mutations reach the parser. decodeEntry errors, or
// EncodeRawEntry of what it decoded gives the sealed bytes back: a padded
// varint, another codec version, a negative cost or a byte after the
// graph, none of which EncodeRawEntry can have written, is an error like
// every other fault. There is never a panic, and a decode allocates at
// most 64 bytes per body byte — the graph decoder's own bound — whatever
// lengths the body declares. The seeds (testdata/fuzz) are the body of a
// clean entry, of testdata/entry.fpc (one with a parse error), and of
// entries with codec version 1, a negative cost and a trailing byte.
func FuzzFpcacheEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		sealed := envelope.Seal(append([]byte(magic), body...))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e, err := decodeEntry(sealed)
		runtime.ReadMemStats(&after)
		// The slack covers an empty graph and what the test binary's other
		// goroutines allocate meanwhile.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(body)+64<<10); got > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(body), got, bound)
		}
		if err != nil {
			return
		}
		if e.Size != int64(len(sealed)) {
			t.Fatalf("entry of %d bytes reports size %d", len(sealed), e.Size)
		}
		if got := EncodeRawEntry(e.Graph.AppendBinary(nil), e.ParseError, e.Cost); !bytes.Equal(got, sealed) {
			t.Fatalf("decoded %d bytes that encode back as %d different ones:\n in  %x\n out %x", len(sealed), len(got), sealed, got)
		}
	})
}
