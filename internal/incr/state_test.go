package incr_test

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"seldon/internal/core"
	"seldon/internal/envelope"
	"seldon/internal/incr"
)

// stateParts is a state body — what lies between the magic and the
// checksum — cut where a test wants to damage it: one record per corpus
// file, per solution score and per pin, their counts left out.
type stateParts struct {
	head  []byte // version, analyzer version, knobs, seed
	files [][]byte
	prev  [][]byte
	pins  [][]byte
	tail  []byte // cold-solve epochs
}

// fixtureParts cuts the body of testdata/state.bin (three files, a
// solution, one pin).
func fixtureParts(t testing.TB) stateParts {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", incr.StateFile))
	if err != nil {
		t.Fatal(err)
	}
	body, err := envelope.Open(data, "SINC")
	if err != nil {
		t.Fatal(err)
	}
	r := envelope.NewReader(body)
	at := func() int { return len(body) - len(r.Rest()) }
	records := func(read func()) [][]byte {
		var out [][]byte
		for n := r.U64(); n > 0; n-- {
			start := at()
			read()
			out = append(out, body[start:at()])
		}
		return out
	}
	score := func() { r.Bytes64(); r.U64(); r.F64() }

	var p stateParts
	r.U64()     // version
	r.Bytes64() // analyzer version
	r.Take(6 * 8)
	r.Bytes64() // seed
	p.head = body[:at()]
	p.files = records(func() { r.Bytes64(); r.Byte(); r.Take(32); r.Bytes64() })
	p.prev = records(score)
	p.pins = records(score)
	p.tail = r.Rest()
	if r.Err() != nil || len(p.files) != 3 || len(p.prev) < 2 || len(p.pins) != 1 {
		t.Fatalf("fixture cut into %d files, %d scores, %d pins (err %v)", len(p.files), len(p.prev), len(p.pins), r.Err())
	}
	return p
}

// body puts the parts back together under the counts they now have.
func (p stateParts) body() []byte {
	b := slices.Clone(p.head)
	for _, records := range [][][]byte{p.files, p.prev, p.pins} {
		b = envelope.AppendU64(b, uint64(len(records)))
		for _, rec := range records {
			b = append(b, rec...)
		}
	}
	return append(b, p.tail...)
}

// withFlag returns a copy of a file record with its content flag set to v.
func withFlag(file []byte, v byte) []byte {
	out := slices.Clone(file)
	nameLen := envelope.NewReader(file).U64()
	out[8+nameLen] = v
	return out
}

// TestLoadRejectsWhatSaveCannotWrite: a sealed state file whose records
// are not in the one order and form Save writes — a file name or a score
// key repeated or out of order, a content flag that is neither 0 nor 1 —
// is the error every other fault is, not a session that quietly keeps the
// last copy and saves back as different bytes.
func TestLoadRejectsWhatSaveCannotWrite(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(*stateParts)
	}{
		{"file name twice", func(p *stateParts) { p.files = [][]byte{p.files[0], p.files[0], p.files[1], p.files[2]} }},
		{"file names out of order", func(p *stateParts) { p.files[0], p.files[1] = p.files[1], p.files[0] }},
		{"content flag 2", func(p *stateParts) { p.files[0] = withFlag(p.files[0], 2) }},
		{"score key twice", func(p *stateParts) { p.prev = append([][]byte{p.prev[0]}, p.prev...) }},
		{"score keys out of order", func(p *stateParts) { p.prev[0], p.prev[1] = p.prev[1], p.prev[0] }},
		{"pin key twice", func(p *stateParts) { p.pins = [][]byte{p.pins[0], p.pins[0]} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := fixtureParts(t)
			path := filepath.Join(t.TempDir(), incr.StateFile)
			write := func() {
				if err := os.WriteFile(path, envelope.Seal(append([]byte("SINC"), p.body()...)), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			write()
			if _, err := incr.Load(path, nil, core.Config{Workers: 1}); err != nil {
				t.Fatalf("the fixture, cut and reassembled, does not load: %v", err)
			}
			tc.damage(&p)
			write()
			if s, err := incr.Load(path, nil, core.Config{Workers: 1}); err == nil {
				t.Fatalf("loaded as a session of %d files and %d pins", s.Len(), s.Pins())
			}
		})
	}
}

// FuzzLoadState holds the state loader to the files Save writes. The
// input is a body — everything between the magic and the checksum — which
// the target frames and seals, so that mutations reach the parser. Load in
// adopt mode (nil seed: the file's own seed and knobs) errors, or Save of
// what loaded writes the sealed bytes back: no two files load as the same
// session, so a repeated or unsorted file name or score key, a content
// flag of 2 or a seed in another JSON spelling, none of which Save can
// have written, is an error like every other fault. There is never a
// panic, and load and save together allocate at most 64 bytes per body
// byte — the graph decoder's own bound — whatever counts the body
// declares. The seeds (testdata/fuzz) are the body of testdata/state.bin,
// a file name twice, two names out of order, a score key twice, a content
// flag of 2, and a file count larger than the bytes left.
func FuzzLoadState(f *testing.F) {
	dir := f.TempDir()
	in, out := filepath.Join(dir, "in.bin"), filepath.Join(dir, "out.bin")
	cfg := core.Config{Workers: 1}
	f.Fuzz(func(t *testing.T, body []byte) {
		sealed := envelope.Seal(append([]byte("SINC"), body...))
		if err := os.WriteFile(in, sealed, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := incr.Load(in, nil, cfg)
		if err == nil {
			err = s.Save(out)
		}
		runtime.ReadMemStats(&after)
		// The slack covers an empty session, the files' names and handles
		// and what the test binary's other goroutines allocate meanwhile.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(body)+256<<10); got > bound {
			t.Fatalf("loading and saving %d bytes allocated %d, bound %d", len(body), got, bound)
		}
		if s == nil {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(out); !bytes.Equal(got, sealed) {
			t.Fatalf("loaded %d bytes that save back as %d different ones", len(sealed), len(got))
		}
	})
}
