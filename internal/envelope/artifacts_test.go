package envelope_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"testing/iotest"

	"seldon/internal/constraints"
	"seldon/internal/core"
	"seldon/internal/envelope"
	"seldon/internal/fpcache"
	"seldon/internal/incr"
	"seldon/internal/shard"
)

// The four persisted artifacts, each as its owning package's committed
// fixture and read the way its owner reads it. What "rejected" means is
// the owner's policy — state.bin errors, the flow cache loads empty, an
// fpcache entry misses, a shard names a sentinel — and every loader
// below also checks that a rejection left no partial value behind.

var errRejected = errors.New("rejected")

func fixture(t *testing.T, pkg, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", pkg, "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// writeTemp puts data at dir/name, replacing what the last variant left.
func writeTemp(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// reseal recomputes the trailer over everything before it.
func reseal(data []byte) []byte {
	return envelope.Seal(bytes.Clone(data[:len(data)-envelope.ChecksumSize]))
}

// stateFixture is the session the state fixture holds, loaded once under
// the seed and knobs it records.
var stateFixture = sync.OnceValues(func() (*incr.Session, error) {
	return incr.LoadDir(filepath.Join("..", "incr", "testdata"), nil, core.Config{Workers: 1})
})

// loadState resumes a session from data under the fixture's own seed:
// with the knobs it was saved under, or with another threshold.
func loadState(t *testing.T, dir string, data []byte, skew bool) error {
	t.Helper()
	pristine, err := stateFixture()
	if err != nil {
		t.Fatalf("pristine state fixture: %v", err)
	}
	cfg := core.Config{Workers: 1}
	if skew {
		cfg.Threshold = 0.5
	}
	writeTemp(t, dir, incr.StateFile, data)
	s, err := incr.LoadDir(dir, pristine.Seed(), cfg)
	if err != nil && s != nil {
		t.Fatal("incr.LoadDir returned a session with its error")
	}
	if err == nil && s.Len() != pristine.Len() {
		t.Fatalf("incr.LoadDir accepted a state of %d files, fixture has %d", s.Len(), pristine.Len())
	}
	return err
}

func loadFlowCache(t *testing.T, dir string, data []byte, skew bool) error {
	t.Helper()
	opts := constraints.Options{Workers: 1}
	if skew {
		opts.Lambda = 0.5
	}
	c, ok := constraints.LoadFlowCache(writeTemp(t, dir, "flowcache.bin", data), opts)
	switch {
	case c == nil:
		t.Fatal("LoadFlowCache returned nil")
	case ok && c.Len() == 0:
		t.Fatal("LoadFlowCache accepted the file and kept no block")
	case !ok && c.Len() != 0:
		t.Fatalf("LoadFlowCache rejected the file and kept %d blocks", c.Len())
	case !ok:
		return errRejected
	}
	return nil
}

// entryName and entrySource are the file whose record the fpcache
// fixture holds: an entry is found only by the file it records.
const entryName, entrySource = "app.py", `from flask import request
import os

def handler():
    q = request.args.get('q')
    os.system(q)
`

func loadEntry(t *testing.T, dir string, data []byte, _ bool) error {
	t.Helper()
	c, err := fpcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeTemp(t, dir, fpcache.Key(entryName, entrySource)+".fpc", data)
	e, ok := c.Get(entryName, entrySource)
	switch st := c.Stats(); {
	case ok && (e == nil || e.Graph == nil || st.Hits != 1):
		t.Fatalf("hit with entry %+v, stats %+v", e, st)
	case !ok && (e != nil || st.Misses != 1 || st.BytesRead != 0):
		t.Fatalf("miss with entry %+v, stats %+v", e, st)
	case !ok:
		return errRejected
	}
	return nil
}

// commitShard hands a decoded artifact to a merge, where analyzer skew
// is judged (the fixture is slice 1 of 2, so it parks).
func commitShard(t *testing.T, a *shard.Artifact, err error) error {
	t.Helper()
	if err != nil {
		if a != nil {
			t.Fatal("shard decoder returned an artifact with its error")
		}
		return err
	}
	return shard.NewMerger(shard.MergeOptions{}).Commit(a)
}

// loadShardWhole reads the artifact the way a file is read, every Read
// filling its buffer; loadShardStream the way a slow pipe delivers it, one
// byte a Read.
func loadShardWhole(t *testing.T, _ string, data []byte, _ bool) error {
	a, err := shard.ReadArtifact(bytes.NewReader(data), shard.ReadOptions{})
	return commitShard(t, a, err)
}

func loadShardStream(t *testing.T, _ string, data []byte, _ bool) error {
	a, err := shard.ReadArtifact(iotest.OneByteReader(bytes.NewReader(data)), shard.ReadOptions{})
	return commitShard(t, a, err)
}

var shardSentinels = []error{shard.ErrTruncated, shard.ErrMagic, shard.ErrCodecVersion,
	shard.ErrChecksum, shard.ErrTrailing, shard.ErrEncoding, shard.ErrAnalyzerVersion}

type artifact struct {
	name string
	data func(t *testing.T) []byte
	load func(t *testing.T, dir string, data []byte, skew bool) error
	// knobs and analyzer say whether the format records them; shard is set
	// for the artifact whose rejections must name a sentinel.
	knobs, analyzer, shard bool
}

var artifacts = []artifact{
	{name: "state.bin", load: loadState, knobs: true, analyzer: true,
		data: func(t *testing.T) []byte { return fixture(t, "incr", incr.StateFile) }},
	{name: "flowcache.bin", load: loadFlowCache, knobs: true, analyzer: true,
		data: func(t *testing.T) []byte { return fixture(t, "constraints", "flowcache.bin") }},
	{name: "entry.fpc", load: loadEntry,
		data: func(t *testing.T) []byte { return fixture(t, "fpcache", "entry.fpc") }},
	{name: "slice.shard whole", load: loadShardWhole, analyzer: true, shard: true,
		data: func(t *testing.T) []byte { return fixture(t, "shard", "slice.shard") }},
	{name: "slice.shard streamed", load: loadShardStream, analyzer: true, shard: true,
		data: func(t *testing.T) []byte { return fixture(t, "shard", "slice.shard") }},
}

// All four formats keep their version in the byte after a four-byte
// magic: a u64's low byte, a one-byte uvarint, or a byte.
const versionOffset = 4

// shardFrameLen is the length of magic, version and payload length.
func shardFrameLen(data []byte) int {
	_, n := binary.Uvarint(data[versionOffset+1:])
	return versionOffset + 1 + n
}

// TestRejectionMatrix presents every artifact with every kind of damage
// and skew and holds each to its documented outcome.
func TestRejectionMatrix(t *testing.T) {
	type variant struct {
		data []byte
		skew bool
		// want is the sentinel a shard must name; nil accepts any of them.
		want error
		// harmless marks damage the checksum was recomputed over: the
		// artifact may still load, and then it must load whole.
		harmless bool
	}
	flip := func(data []byte, i int, mask byte) []byte {
		d := bytes.Clone(data)
		d[i] ^= mask
		return d
	}
	cases := []struct {
		name     string
		applies  func(a artifact) bool
		variants func(a artifact, data []byte) []variant
	}{
		{name: "truncation at every offset", variants: func(a artifact, data []byte) (vs []variant) {
			for i := range data {
				vs = append(vs, variant{data: data[:i], want: shard.ErrTruncated})
			}
			return vs
		}},
		{name: "every single-byte flip", variants: func(a artifact, data []byte) (vs []variant) {
			frame := shardFrameLen(data)
			for i := range data {
				var want error
				switch {
				case i < versionOffset:
					want = shard.ErrMagic
				case i == versionOffset:
					want = shard.ErrCodecVersion
				case i >= frame:
					want = shard.ErrChecksum
				}
				vs = append(vs, variant{data: flip(data, i, 0x01), want: want},
					variant{data: flip(data, i, 0x80), want: want})
			}
			return vs
		}},
		{name: "every single-byte flip, resealed", variants: func(a artifact, data []byte) (vs []variant) {
			for i := versionOffset + 1; i < len(data)-envelope.ChecksumSize; i++ {
				vs = append(vs, variant{data: reseal(flip(data, i, 0x01)), harmless: true},
					variant{data: reseal(flip(data, i, 0x80)), harmless: true})
			}
			return vs
		}},
		{name: "wrong magic", variants: func(a artifact, data []byte) []variant {
			return []variant{{data: reseal(flip(data, 0, 0xff)), want: shard.ErrMagic}}
		}},
		{name: "version ±1", variants: func(a artifact, data []byte) (vs []variant) {
			for _, delta := range []byte{1, 0xff} {
				d := bytes.Clone(data)
				d[versionOffset] += delta
				vs = append(vs, variant{data: reseal(d), want: shard.ErrCodecVersion})
			}
			return vs
		}},
		{name: "analyzer-version skew", applies: func(a artifact) bool { return a.analyzer },
			variants: func(a artifact, data []byte) []variant {
				i := bytes.Index(data, []byte(fpcache.AnalyzerVersion))
				if i < 0 {
					t.Fatalf("%s does not carry the analyzer version", a.name)
				}
				return []variant{{data: reseal(flip(data, i, 0x20)), want: shard.ErrAnalyzerVersion}}
			}},
		{name: "knob skew", applies: func(a artifact) bool { return a.knobs },
			variants: func(a artifact, data []byte) []variant {
				return []variant{{data: data, skew: true}}
			}},
		{name: "one trailing byte", variants: func(a artifact, data []byte) []variant {
			inside := envelope.Seal(append(bytes.Clone(data[:len(data)-envelope.ChecksumSize]), 0))
			return []variant{
				{data: append(bytes.Clone(data), 0), want: shard.ErrTrailing},
				{data: inside}, // under the checksum: a shard may blame the length or the hash
			}
		}},
	}
	for _, a := range artifacts {
		t.Run(a.name, func(t *testing.T) {
			data, dir := a.data(t), t.TempDir()
			if err := a.load(t, dir, data, false); err != nil {
				t.Fatalf("pristine fixture: %v", err)
			}
			for _, tc := range cases {
				if tc.applies != nil && !tc.applies(a) {
					continue
				}
				t.Run(tc.name, func(t *testing.T) {
					for i, v := range tc.variants(a, data) {
						err := a.load(t, dir, v.data, v.skew)
						if err == nil {
							if !v.harmless {
								t.Fatalf("variant %d loaded", i)
							}
							continue
						}
						if !a.shard {
							continue
						}
						named := false
						for _, s := range shardSentinels {
							named = named || errors.Is(err, s)
						}
						if !named || (v.want != nil && !v.harmless && !errors.Is(err, v.want)) {
							t.Fatalf("variant %d: %v, want sentinel %v", i, err, v.want)
						}
					}
				})
			}
		})
	}
}

// allocated is the heap f allocated, live or not.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// patchU64 overwrites the u64 at the offset where r stands in data.
func patchU64(data []byte, r *envelope.Reader, v uint64) {
	at := len(data) - envelope.ChecksumSize - len(r.Rest())
	binary.LittleEndian.PutUint64(data[at:], v)
}

// patchUvarint replaces the uvarint at the offset where r stands in data.
func patchUvarint(data []byte, r *envelope.Reader, v uint64) []byte {
	at := len(data) - envelope.ChecksumSize - len(r.Rest())
	_, n := binary.Uvarint(data[at:])
	return append(binary.AppendUvarint(bytes.Clone(data[:at]), v), data[at+n:]...)
}

// TestDeclaredLengthsDoNotAllocate: a count or length the input declares
// is a claim. Each case is a small, correctly checksummed artifact that
// claims 1<<24 elements or 1<<28 bytes it does not have, or an element
// 1<<24 of a table far shorter; its decoder must reject it the usual way
// having allocated next to nothing.
func TestDeclaredLengthsDoNotAllocate(t *testing.T) {
	const hugeCount, hugeLen = 1 << 24, 1 << 28

	// state.bin: version, analyzer version, four knobs, seed, then counted
	// files (a uvarint count), solutions and pins (u64 counts).
	state := func(which int) []byte {
		data := fixture(t, "incr", incr.StateFile)
		r := envelope.NewReader(data[4 : len(data)-envelope.ChecksumSize])
		r.U64()
		r.Bytes64()
		r.Take(4 * 8)
		r.Bytes64()
		if which == 0 {
			return reseal(patchUvarint(data, r, hugeCount))
		}
		for n := r.Uvarint(); n > 0 && r.Err() == nil; n-- {
			fpcache.ReadRecord(r)
		}
		for section := 1; ; section++ {
			if section == which {
				patchU64(data, r, hugeCount)
				return reseal(data)
			}
			for n := r.U64(); n > 0 && r.Err() == nil; n-- {
				r.Bytes64()
				r.Take(8 + 8)
			}
			if r.Err() != nil {
				t.Fatalf("state fixture does not walk: %v", r.Err())
			}
		}
	}
	// flowcache.bin: version, analyzer version, three knobs, then three
	// uvarint-counted tables: coefficients (8 bytes each), distinct
	// constraints (two counted lists of a variable and a coefficient index
	// each), and blocks (a name, a fingerprint, four counts and counted
	// constraint indices). The walk stops at the uvarint it patches.
	flow := func(stop string) []byte {
		data := fixture(t, "constraints", "flowcache.bin")
		r := envelope.NewReader(data[4 : len(data)-envelope.ChecksumSize])
		r.U64()
		r.Bytes64()
		r.Take(3 * 8)
		patch := func() []byte {
			if r.Err() != nil {
				t.Fatalf("flowcache fixture does not walk: %v", r.Err())
			}
			return reseal(patchUvarint(data, r, hugeCount))
		}
		if stop == "coefficients" {
			return patch()
		}
		r.Take(8 * int(r.Uvarint()))
		if stop == "constraints" {
			return patch()
		}
		for n := r.Uvarint(); n > 0; n-- {
			for side := 0; side < 2; side++ {
				for k := r.Uvarint(); k > 0; k-- {
					r.Uvarint()
					if stop == "coefficient index" {
						return patch()
					}
					r.Uvarint()
				}
			}
		}
		if stop == "blocks" {
			return patch()
		}
		r.Uvarint()
		r.BytesV()
		r.Take(32)
		for range 4 {
			r.Uvarint()
		}
		if stop == "block's constraints" {
			return patch()
		}
		r.Uvarint()
		return patch() // the block's first constraint index
	}
	// An fpcache entry: magic, version 4, then a record — name, source
	// hash, parse error, graph — whose graph is what the case needs.
	entry := func(parseErrLen uint64, graph []byte) []byte {
		b := binary.AppendUvarint([]byte("SFPC"), 4)
		b = envelope.AppendBytesV(b, entryName)
		b = append(b, make([]byte, 32)...)
		b = binary.AppendUvarint(b, parseErrLen)
		if parseErrLen == 0 {
			b = envelope.AppendBytesV(b, graph)
		}
		return envelope.Seal(b)
	}
	// A shard stream: magic, version 4, a payload length of 1<<30, and as
	// much of the payload as the case needs before the pipe "closes".
	stream := func(payload []byte) []byte {
		return append(binary.AppendUvarint([]byte("SSHD\x04"), 1<<30), payload...)
	}
	section := envelope.AppendBytesV(nil, fpcache.AnalyzerVersion)
	section = append(section, 0, 1, 1) // slice 0 of 1, one file
	section = envelope.AppendBytesV(section, "a.py")
	section = append(section, make([]byte, 32)...) // content hash
	section = envelope.AppendBytesV(section, "")   // no parse error
	section = binary.AppendUvarint(section, hugeLen)

	for _, tc := range []struct {
		name string
		data []byte
		load func(t *testing.T, dir string, data []byte, skew bool) error
		want error
	}{
		{"state.bin file count", state(0), loadState, nil},
		{"state.bin solution count", state(1), loadState, nil},
		{"state.bin pin count", state(2), loadState, nil},
		{"flowcache.bin coefficient count", flow("coefficients"), loadFlowCache, nil},
		{"flowcache.bin distinct-constraint count", flow("constraints"), loadFlowCache, nil},
		{"flowcache.bin coefficient index", flow("coefficient index"), loadFlowCache, nil},
		{"flowcache.bin block count", flow("blocks"), loadFlowCache, nil},
		{"flowcache.bin constraint count", flow("block's constraints"), loadFlowCache, nil},
		{"flowcache.bin constraint index", flow("constraint index"), loadFlowCache, nil},
		{"entry.fpc parse-error length", entry(hugeLen, nil), loadEntry, nil},
		{"entry.fpc symbol count", entry(0, binary.AppendUvarint([]byte{'G', 2}, hugeLen)), loadEntry, nil},
		{"shard string length", stream(binary.AppendUvarint(nil, hugeLen)), loadShardStream, shard.ErrTruncated},
		{"shard graph-section length", stream(section), loadShardStream, shard.ErrTruncated},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			dir := t.TempDir()
			got := allocated(func() { err = tc.load(t, dir, tc.data, false) })
			if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
				t.Errorf("load = %v, want rejection (%v)", err, tc.want)
			}
			if got >= 1<<20 {
				t.Errorf("%d bytes of input made the decoder allocate %d", len(tc.data), got)
			}
		})
	}
}
