package specio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSpecioDecode holds the store decoder to what Encode writes. A store
// is read by seldond on every reload and by seldon check from wherever -spec
// points, so its bytes are untrusted. Decode errors with one of its
// sentinels, or Encode of what it decoded decodes back Equal with the same
// Meta and encodes again to the same bytes: a schema below 1, an entry
// listed twice or a byte after the store, none of which Encode can have
// written, is an error like every other fault. Whitespace and key order
// are free, so the input itself need not be canonical; JSON declares no
// lengths, so there is no declared size to allocate from. The seeds
// (testdata/fuzz) are TestDecodeRejectsNonCanonicalStores's cases; the
// golden store is added here.
func FuzzSpecioDecode(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "store_v1.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Fuzz(func(t *testing.T, in []byte) {
		s, meta, err := Decode(bytes.NewReader(in))
		if err != nil {
			for _, sentinel := range []error{ErrMalformed, ErrSchema, ErrDuplicate, ErrTrailing} {
				if errors.Is(err, sentinel) {
					return
				}
			}
			t.Fatalf("Decode error %v wraps none of the sentinels", err)
		}
		var first bytes.Buffer
		if err := Encode(&first, s, meta); err != nil {
			t.Fatalf("Encode of a decoded store: %v", err)
		}
		again, againMeta, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Decode of Encode's output: %v\n%s", err, first.Bytes())
		}
		if !Equal(s, again) || againMeta != meta {
			t.Fatalf("store changed through Encode:\n in  %+v %+v\n out %+v %+v", s.Entries(), meta, again.Entries(), againMeta)
		}
		var second bytes.Buffer
		if err := Encode(&second, again, againMeta); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding is not stable:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
