package shard

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"seldon/internal/envelope"
)

// seal frames a payload the way Encode does.
func seal(payload []byte) []byte {
	out := append([]byte(magic), codecVersion)
	return envelope.Seal(envelope.AppendBytesV(out, payload))
}

func isOneOf(err error, sentinels ...error) bool {
	for _, s := range sentinels {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// FuzzReadArtifact holds the one shard decoder to what a coordinator
// needs of bytes it did not write. The input is a payload. Fed as it is,
// it errors with a frame or payload sentinel. Framed and sealed — so that
// mutations reach the parser and do not die at the checksum — it is
// ErrEncoding, or an artifact that encodes back to exactly the sealed
// bytes (no two byte strings decode to the same slice) and which a merge
// commits or refuses by name. There is never a panic and never an
// artifact beside an error, and the two decodes together allocate at most
// 64 bytes per payload byte, whatever counts the payload declares
// (measured without a slice union: 1.7 KB for an empty input, 15 per byte
// for the fixture's payload, 20 for two thousand empty graphs). The seeds
// (testdata/fuzz) are the payload of testdata/slice.shard, a two-file
// payload without a sidecar, an empty manifest, an unsorted manifest, and
// a payload with a byte after its last section.
func FuzzReadArtifact(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		sealed := seal(payload)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rawArt, rawErr := ReadArtifact(bytes.NewReader(payload), ReadOptions{})
		a, err := ReadArtifact(bytes.NewReader(sealed), ReadOptions{})
		runtime.ReadMemStats(&after)
		// The slack covers io.ReadAll's first buffers and what the test
		// binary's other goroutines allocate meanwhile.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(payload)+64<<10); got > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(payload), got, bound)
		}
		if (rawErr != nil && rawArt != nil) || (err != nil && a != nil) {
			t.Fatalf("an error came with an artifact: %v, %v", rawErr, err)
		}
		if rawErr != nil && !isOneOf(rawErr, ErrTruncated, ErrMagic, ErrCodecVersion, ErrEncoding, ErrChecksum, ErrTrailing) {
			t.Fatalf("unframed input: unnamed error %v", rawErr)
		}
		if err != nil {
			if !errors.Is(err, ErrEncoding) {
				t.Fatalf("sealed payload: %v, want ErrEncoding", err)
			}
			return
		}
		if a.Size != int64(len(sealed)) {
			t.Fatalf("Size = %d of %d bytes", a.Size, len(sealed))
		}
		if enc := a.Encode(); !bytes.Equal(enc, sealed) {
			t.Fatalf("decoded %d bytes that re-encode to %d different ones:\n in  %x\n out %x", len(sealed), len(enc), sealed, enc)
		}
		if err := NewMerger(MergeOptions{}).Commit(a); err != nil &&
			!isOneOf(err, ErrAnalyzerVersion, ErrSliceCount, ErrDuplicateSlice, ErrSliceOrder, ErrEncoding) {
			t.Fatalf("Commit: unnamed error %v", err)
		}
	})
}
