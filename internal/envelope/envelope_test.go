package envelope

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

const testMagic = "SENV"

func sealed(body string) []byte { return Seal([]byte(testMagic + body)) }

func TestOpen(t *testing.T) {
	good := sealed("payload")
	if body, err := Open(good, testMagic); err != nil || string(body) != "payload" {
		t.Fatalf("Open(good) = %q, %v", body, err)
	}
	if body, err := Open(sealed(""), testMagic); err != nil || len(body) != 0 {
		t.Fatalf("Open(empty body) = %q, %v", body, err)
	}
	flip := func(i int) []byte {
		d := bytes.Clone(good)
		d[i] ^= 0x01
		return d
	}
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"shorter than magic and trailer", good[:len(testMagic)+ChecksumSize-1], ErrTruncated},
		{"cut", good[:len(good)-1], ErrChecksum},
		{"wrong magic", flip(0), ErrMagic},
		{"flipped body", flip(len(testMagic) + 2), ErrChecksum},
		{"flipped trailer", flip(len(good) - 1), ErrChecksum},
		{"one more byte", append(bytes.Clone(good), 0), ErrChecksum},
	} {
		if body, err := Open(tc.data, testMagic); !errors.Is(err, tc.want) || body != nil {
			t.Errorf("%s: Open = %q, %v; want %v", tc.name, body, err, tc.want)
		}
	}
}

func TestReaderRoundTrip(t *testing.T) {
	b := AppendU64(nil, 7)
	b = AppendF64(b, -0.25)
	b = AppendBytes64(b, "wide")
	b = AppendBytesV(b, []byte("narrow"))
	b = append(b, 0xfe, 0x01) // uvarint 254
	b = append(b, 0x03)       // varint -2
	b = append(b, 9, 1, 2, 3)

	r := NewReader(b)
	if v := r.U64(); v != 7 {
		t.Errorf("U64 = %d", v)
	}
	if v := r.F64(); v != -0.25 {
		t.Errorf("F64 = %v", v)
	}
	if s := r.String64(); s != "wide" {
		t.Errorf("String64 = %q", s)
	}
	if s := r.StringV(); s != "narrow" {
		t.Errorf("StringV = %q", s)
	}
	if v := r.Uvarint(); v != 254 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Varint(); v != -2 {
		t.Errorf("Varint = %d", v)
	}
	if v := r.Byte(); v != 9 {
		t.Errorf("Byte = %d", v)
	}
	if !bytes.Equal(r.Rest(), []byte{1, 2, 3}) {
		t.Errorf("Rest = %v", r.Rest())
	}
	if err := r.Close(); !errors.Is(err, ErrTrailing) {
		t.Errorf("Close with 3 bytes left = %v, want ErrTrailing", err)
	}
	if p := r.Take(3); p != nil {
		t.Errorf("Take after a latched error = %v", p)
	}
}

// TestReaderLatches: the first failure sticks and leaves nothing to read,
// later reads return zero, and a caller's own Fail does not overwrite it.
func TestReaderLatches(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if v := r.U64(); v != 0 || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("U64 over 3 bytes = %d, %v", v, r.Err())
	}
	first := r.Err()
	r.Fail(errors.New("later"))
	if r.Byte() != 0 || r.Uvarint() != 0 || r.Varint() != 0 || r.StringV() != "" || len(r.Bytes64()) != 0 {
		t.Error("read after a latched error returned data")
	}
	if r.Err() != first || r.Close() != first || len(r.Rest()) != 0 {
		t.Errorf("latched error moved or bytes were left: %v, %d left", r.Err(), len(r.Rest()))
	}
	own := NewReader([]byte{1, 2, 3})
	mine := errors.New("mine")
	if own.Fail(mine); own.Byte() != 0 || own.Close() != mine {
		t.Errorf("after Fail: %v, %d left", own.Err(), len(own.Rest()))
	}

	over := NewReader(bytes.Repeat([]byte{0xff}, 11))
	if over.Uvarint(); over.Err() == nil || errors.Is(over.Err(), ErrTruncated) {
		t.Errorf("overflowing varint: %v, want an error that is not truncation", over.Err())
	}
	cut := NewReader([]byte{0x80})
	if cut.Varint(); !errors.Is(cut.Err(), ErrTruncated) {
		t.Errorf("varint cut short: %v, want ErrTruncated", cut.Err())
	}
}

// TestCountBoundsByBytesInHand: a count is accepted exactly when that
// many elements of the least size fit in what is left.
func TestCountBoundsByBytesInHand(t *testing.T) {
	for _, tc := range []struct {
		left int
		n    uint64
		min  int
		ok   bool
	}{
		{left: 0, n: 0, min: 8, ok: true},
		{left: 24, n: 3, min: 8, ok: true},
		{left: 23, n: 3, min: 8, ok: false},
		{left: 5, n: 5, min: 1, ok: true},
		{left: 5, n: 6, min: 1, ok: false},
		{left: 100, n: 1 << 24, min: 24, ok: false},
		{left: 100, n: 1<<63 + 1, min: 2, ok: false}, // n*min wraps to 2
		{left: 100, n: ^uint64(0), min: 1, ok: false},
	} {
		r := NewReader(make([]byte, tc.left))
		got := r.Count(tc.n, tc.min)
		if ok := r.Err() == nil; ok != tc.ok || (ok && uint64(got) != tc.n) || (!ok && got != 0) {
			t.Errorf("Count(%d, %d) with %d left = %d, %v; want ok=%v", tc.n, tc.min, tc.left, got, r.Err(), tc.ok)
		}
		if !tc.ok && !errors.Is(r.Err(), ErrTruncated) {
			t.Errorf("Count(%d, %d) with %d left: %v, want ErrTruncated", tc.n, tc.min, tc.left, r.Err())
		}
	}
	// A declared length the input cannot hold is refused before the copy.
	r := NewReader(AppendU64(nil, 1<<40))
	if s := r.String64(); s != "" || !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("String64 with a 1<<40 prefix = %q, %v", s, r.Err())
	}
}

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.bin")
	for _, content := range []string{"first", "second"} {
		if err := WriteFile(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != content {
			t.Fatalf("read back %q, %v; want %q", got, err, content)
		}
	}
	// The rename fails onto a non-empty directory; the temp must not stay.
	sub := filepath.Join(dir, "sub")
	if err := os.MkdirAll(filepath.Join(sub, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(sub, []byte("x")); err == nil {
		t.Fatal("WriteFile over a non-empty directory succeeded")
	}
	if err := WriteFile(filepath.Join(dir, "missing", "a.bin"), nil); err == nil {
		t.Fatal("WriteFile into a missing directory succeeded")
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if IsTemp(de.Name()) {
			t.Errorf("temp file %q left behind", de.Name())
		}
	}
	if len(des) != 2 {
		t.Errorf("directory holds %d entries, want a.bin and sub", len(des))
	}
	if !IsTemp(".a.bin.tmp-123") || IsTemp("a.bin") || IsTemp("0123.fpc") {
		t.Error("IsTemp does not tell WriteFile's temp names from entry names")
	}
}

// FuzzEnvelopeOpen: Open errors with one of its sentinels, or the input
// is exactly Seal(magic + body); and a cursor over the body, driven by
// the body's own bytes, never panics, never hands out more than it was
// given and never accepts a count the bytes left could not hold.
func FuzzEnvelopeOpen(f *testing.F) {
	f.Add(sealed(""))
	f.Add(sealed("payload"))
	f.Add(sealed("payload")[:20])
	f.Add(Seal(AppendBytes64(AppendU64([]byte(testMagic), 1<<40), "x")))
	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := Open(data, testMagic)
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrMagic) && !errors.Is(err, ErrChecksum) {
				t.Fatalf("Open error %v is none of the sentinels", err)
			}
			// Judge the cursor on unframed bytes too.
			body = data
		} else if !bytes.Equal(Seal(append([]byte(testMagic), body...)), data) {
			t.Fatal("Open succeeded on bytes Seal would not have produced")
		}
		r := NewReader(body)
		for i := 0; i < len(body) && r.Err() == nil; i++ {
			before := len(r.Rest())
			switch op := body[i]; op % 8 {
			case 0:
				r.Byte()
			case 1:
				r.U64()
			case 2:
				r.Uvarint()
			case 3:
				r.Varint()
			case 4:
				if p := r.Bytes64(); len(p) > before {
					t.Fatalf("Bytes64 returned %d of %d bytes", len(p), before)
				}
			case 5:
				if p := r.BytesV(); len(p) > before {
					t.Fatalf("BytesV returned %d of %d bytes", len(p), before)
				}
			case 6:
				min := int(op/8)%16 + 1
				if n := r.Count(r.Uvarint(), min); n*min > before {
					t.Fatalf("Count accepted %d elements of %d bytes with %d left", n, min, before)
				}
			case 7:
				r.Take(int(op / 8))
			}
			if len(r.Rest()) > before {
				t.Fatal("cursor moved backwards")
			}
		}
		if err := r.Close(); err == nil && len(r.Rest()) != 0 {
			t.Fatal("Close accepted leftover bytes")
		}
	})
}
