package propgraph

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzDecodeBinary holds the graph codec — the payload fpcache entries,
// shard artifacts and session state all embed — to its canonical form:
// DecodeBinary(b) is an error, or the graph it returns encodes to exactly
// the bytes it consumed and rest is what followed them. So no two byte
// strings decode to the same graph, which is what lets a graph's encoding
// stand for it as a hash key and lets a decoder's output be copied in
// bulk under the encoder's invariants. It never panics, and it does not
// allocate from a count the input merely declares: a few dozen bytes per
// input byte, whatever the input says. The seeds (testdata/fuzz) are the
// graph sections of the committed format fixtures, an empty graph,
// labelled edges, and inputs that are well-formed but not canonical.
func FuzzDecodeBinary(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, rest, err := DecodeBinary(data)
		runtime.ReadMemStats(&after)
		// The slack covers what the test binary's other goroutines allocate
		// meanwhile.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+64<<10); got > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		if err != nil {
			if g != nil || rest != nil {
				t.Fatalf("error %v came with a graph or a remainder", err)
			}
			return
		}
		if len(rest) > len(data) || !bytes.Equal(rest, data[len(data)-len(rest):]) {
			t.Fatalf("rest is not the input's tail: %d of %d bytes", len(rest), len(data))
		}
		used := data[:len(data)-len(rest)]
		if enc := g.AppendBinary(nil); !bytes.Equal(enc, used) {
			t.Fatalf("decoded %d bytes that re-encode to %d different ones:\n in  %x\n out %x", len(used), len(enc), used, enc)
		}
	})
}
