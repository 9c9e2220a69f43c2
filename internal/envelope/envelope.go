// Package envelope is the one place that knows how a persisted artifact
// is framed, checked, read and written. Session state, the flow-block
// cache, analysis-cache entries and shard artifacts all start with a
// magic, end with the sha256 of everything before it, and reach disk
// through a temp file renamed into place; their payloads are walked by
// one cursor that cannot be made to allocate from a length the input
// merely declares. What a failure means stays with the owner: a session
// errors, a cache misses, a shard names its sentinel.
package envelope

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// ChecksumSize is the length of the trailer Seal appends.
const ChecksumSize = sha256.Size

// The ways a frame can be unusable. Reader latches ErrTruncated for a
// read past the end and Close reports ErrTrailing for bytes left over.
var (
	ErrTruncated = errors.New("envelope: truncated artifact")
	ErrMagic     = errors.New("envelope: bad magic")
	ErrChecksum  = errors.New("envelope: checksum mismatch")
	ErrTrailing  = errors.New("envelope: trailing bytes after artifact")

	errVarint = errors.New("envelope: varint overflows 64 bits or is padded")
)

// Seal appends the sha256 of b to b.
func Seal(b []byte) []byte {
	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}

// Open checks that data is magic + body + the sha256 of both, and
// returns the body (aliasing data).
func Open(data []byte, magic string) ([]byte, error) {
	n := len(data) - ChecksumSize
	if n < len(magic) {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: %q", ErrMagic, data[:len(magic)])
	}
	if sum := sha256.Sum256(data[:n]); !bytes.Equal(sum[:], data[n:]) {
		return nil, ErrChecksum
	}
	return data[len(magic):n], nil
}

const tempInfix = ".tmp-"

// WriteFile writes data to path through a temp file in path's directory
// renamed into place, so no reader and no crash ever sees part of it.
// The temp file is removed on every failure.
func WriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+tempInfix+"*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// IsTemp reports whether name is one WriteFile gives its temp files — what
// a writer that died before the rename leaves behind.
func IsTemp(name string) bool {
	return strings.HasPrefix(name, ".") && strings.Contains(name, tempInfix)
}

// AppendU64 appends v as eight little-endian bytes.
func AppendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// AppendF64 appends the IEEE 754 bits of v as AppendU64 does.
func AppendF64(b []byte, v float64) []byte {
	return AppendU64(b, math.Float64bits(v))
}

// AppendBytes64 appends p behind its length as a fixed-width u64.
func AppendBytes64[T ~string | ~[]byte](b []byte, p T) []byte {
	return append(AppendU64(b, uint64(len(p))), p...)
}

// AppendBytesV appends p behind its length as a uvarint.
func AppendBytesV[T ~string | ~[]byte](b []byte, p T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

// Reader is a cursor over a whole buffer. The first failed read latches
// its error and moves the cursor to the end, so every later read returns
// zero without a check of its own. Moving is one integer store: the
// fixed-width reads inline, and none pays a write barrier. Slices it
// hands out alias the buffer.
type Reader struct {
	data []byte
	at   int
	err  error
}

// NewReader returns a cursor at the start of data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the latched error, if any.
func (r *Reader) Err() error { return r.err }

// Fail latches err unless an earlier failure already did.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.at = len(r.data)
}

// Rest returns the bytes not yet read.
func (r *Reader) Rest() []byte { return r.data[r.at:] }

// Close returns the latched error, or ErrTrailing when bytes are left.
func (r *Reader) Close() error {
	if left := len(r.data) - r.at; left != 0 {
		r.Fail(fmt.Errorf("%w: %d bytes", ErrTrailing, left))
	}
	return r.err
}

// Take reads the next n bytes.
func (r *Reader) Take(n int) []byte {
	if n < 0 || n > len(r.data)-r.at {
		r.Fail(ErrTruncated)
		return nil
	}
	p := r.data[r.at : r.at+n : r.at+n]
	r.at += n
	return p
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.at >= len(r.data) {
		r.Fail(ErrTruncated)
		return 0
	}
	b := r.data[r.at]
	r.at++
	return b
}

// U64 reads eight little-endian bytes.
func (r *Reader) U64() uint64 {
	if len(r.data)-r.at < 8 {
		r.Fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.at:])
	r.at += 8
	return v
}

// F64 reads what AppendF64 wrote.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// varint moves past a varint of n bytes, or fails when binary.Uvarint
// or binary.Varint returned n <= 0, or when the varint is padded: a last
// byte of zero after others is not how any encoder here writes the value,
// and a format whose bytes stand for its content cannot have two spellings.
func (r *Reader) varint(n int) bool {
	switch {
	case n > 1 && r.data[r.at+n-1] == 0:
		r.Fail(errVarint)
	case n > 0:
		r.at += n
		return true
	case n == 0:
		r.Fail(ErrTruncated)
	default:
		r.Fail(errVarint)
	}
	return false
}

// Uvarint reads one unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.data[r.at:])
	if !r.varint(n) {
		return 0
	}
	return v
}

// Varint reads one signed varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.data[r.at:])
	if !r.varint(n) {
		return 0
	}
	return v
}

// Count checks n, a count just read, against the bytes that are left:
// each element takes at least min of them, so a larger n cannot be real
// and is rejected before anything is sized by it.
func (r *Reader) Count(n uint64, min int) int {
	if left := uint64(len(r.data) - r.at); n > left || n*uint64(min) > left {
		r.Fail(fmt.Errorf("%w: %d elements of at least %d bytes declared, %d bytes left",
			ErrTruncated, n, min, left))
		return 0
	}
	return int(n)
}

// Bytes64 reads a u64 length and that many bytes.
func (r *Reader) Bytes64() []byte { return r.Take(r.Count(r.U64(), 1)) }

// BytesV reads a uvarint length and that many bytes.
func (r *Reader) BytesV() []byte { return r.Take(r.Count(r.Uvarint(), 1)) }

// String64 is Bytes64 copied into a string.
func (r *Reader) String64() string { return string(r.Bytes64()) }

// StringV is BytesV copied into a string.
func (r *Reader) StringV() string { return string(r.BytesV()) }
