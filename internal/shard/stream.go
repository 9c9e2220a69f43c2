package shard

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"slices"
	"time"

	"seldon/internal/fpcache"
	"seldon/internal/obs"
	"seldon/internal/propgraph"
)

// Header is the streaming decoder's view of an artifact before any file
// section has been read: the envelope preamble, verified for framing but
// not yet for checksum (the checksum trails the payload; Finish settles
// it).
type Header struct {
	AnalyzerVersion string
	Slice, Slices   int
	// NumFiles is the declared section count; Next yields exactly this
	// many sections before io.EOF.
	NumFiles int
	// Sidecar reports whether each section carries an fpcache key+cost.
	Sidecar bool
}

// FileSection is one decoded per-file section. The struct (and Enc) is
// reused across Next calls on the same Reader; callers that retain a
// field past the next Next must copy it. Graph is freshly allocated per
// section and safe to keep.
type FileSection struct {
	Meta  FileMeta
	Graph *propgraph.Graph
	// Enc is the section's raw graph bytes (exactly Graph.AppendBinary);
	// its sha256 is the span hash the incremental constraint builder
	// keys flow blocks by.
	Enc []byte
	// Key and Cost are the fpcache sidecar fields; zero unless
	// Header.Sidecar.
	Key  [32]byte
	Cost time.Duration
}

// Reader decodes one artifact incrementally from an io.Reader: Header,
// then Next until io.EOF, then Finish. Peak memory is one file section.
//
// Verification order matters: the sha256 trailer arrives last, so a
// section handed out by Next is framing-valid but not yet
// checksum-settled — callers must not act on decoded data (beyond
// accumulating it) until Finish returns nil. ReadArtifact follows that
// contract; so does the coordinator, which commits a slice to the merge
// only after Finish.
//
// Sentinel fidelity with whole-buffer Decode: when the payload fails to
// parse mid-stream the reader cannot yet tell corruption (ErrChecksum)
// from an encoder bug (ErrEncoding) — a flipped length byte produces
// both a parse failure and a checksum mismatch. It therefore drains the
// rest of the declared payload, reads the trailer, and reports
// ErrChecksum if the running hash disagrees, ErrEncoding if it holds
// (and ErrTruncated if the input ends first) — the same verdicts Decode
// reaches by checking the checksum up front. All errors are terminal:
// the first failure latches and every later call returns it.
type Reader struct {
	src io.Reader
	sum hash.Hash
	// size counts every byte consumed from src (header, payload,
	// trailer) — the streamed artifact's encoded size.
	size int64
	// left is the declared payload bytes not yet consumed.
	left uint64

	hdr     Header
	hdrDone bool

	filesLeft int
	prevName  string
	hasPrev   bool
	sec       FileSection

	err error
}

// NewReader wraps src for streaming artifact decode. The reader buffers
// nothing beyond the current section; wrap src in a bufio.Reader if it
// is unbuffered (ReadFile does).
func NewReader(src io.Reader) *Reader {
	return &Reader{src: src, sum: sha256.New()}
}

// Size reports the bytes consumed from the source so far (the full
// encoded artifact size once Finish returns nil).
func (r *Reader) Size() int64 { return r.size }

// raw reads exactly len(p) bytes from the source into the running
// checksum. An early EOF is ErrTruncated.
func (r *Reader) raw(p []byte, what string) error {
	n, err := io.ReadFull(r.src, p)
	r.size += int64(n)
	r.sum.Write(p[:n])
	if err != nil {
		r.err = fmt.Errorf("%w: %s incomplete", ErrTruncated, what)
		return r.err
	}
	return nil
}

// pread reads exactly len(p) payload bytes; a read crossing the declared
// payload end is a parse fault (the drain-verify path decides its
// sentinel), an early EOF is ErrTruncated.
func (r *Reader) pread(p []byte, what string) error {
	if uint64(len(p)) > r.left {
		return r.fault("%s overruns payload (%d bytes declared, %d left)", what, len(p), r.left)
	}
	if err := r.raw(p, what); err != nil {
		return err
	}
	r.left -= uint64(len(p))
	return nil
}

// puvarint reads one uvarint from the payload.
func (r *Reader) puvarint(what string) (uint64, error) {
	var v uint64
	var b [1]byte
	for shift := 0; shift < 64; shift += 7 {
		if err := r.pread(b[:], what); err != nil {
			return 0, err
		}
		v |= uint64(b[0]&0x7f) << shift
		if b[0] < 0x80 {
			return v, nil
		}
	}
	return 0, r.fault("%s is not a varint", what)
}

// readChunk bounds what pbytes allocates ahead of the bytes it has read.
const readChunk = 64 << 10

// pbytes reads one length-prefixed run of payload bytes into a fresh
// buffer. The length is only a claim — checked against the payload's
// declared length, which is itself a claim — so the buffer grows as the
// bytes arrive instead of being sized by it.
func (r *Reader) pbytes(what string) ([]byte, error) {
	n, err := r.puvarint(what + " length")
	if err != nil {
		return nil, err
	}
	if n > r.left {
		return nil, r.fault("%s overruns payload (%d bytes declared, %d left)", what, n, r.left)
	}
	buf := make([]byte, 0, min(n, readChunk))
	for have := uint64(0); have < n; have = uint64(len(buf)) {
		buf = slices.Grow(buf, int(min(n-have, readChunk)))
		buf = buf[:min(n, uint64(cap(buf)))]
		if err := r.pread(buf[have:], what); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// pstring reads one length-prefixed string from the payload.
func (r *Reader) pstring(what string) (string, error) {
	buf, err := r.pbytes(what)
	return string(buf), err
}

// fault records a payload parse failure, then resolves its sentinel by
// draining the rest of the payload and settling the checksum: a bad hash
// means the parse failure was corruption (ErrChecksum), a good hash
// means the bytes are what the encoder wrote (ErrEncoding), and an EOF
// first means the artifact simply ends early (ErrTruncated).
func (r *Reader) fault(format string, args ...any) error {
	cause := fmt.Errorf("%w: "+format, append([]any{ErrEncoding}, args...)...)
	buf := make([]byte, 32*1024)
	for r.left > 0 {
		n := uint64(len(buf))
		if n > r.left {
			n = r.left
		}
		m, err := r.src.Read(buf[:n])
		r.size += int64(m)
		r.sum.Write(buf[:m])
		r.left -= uint64(m)
		if err != nil {
			r.err = fmt.Errorf("%w: artifact ends inside payload (%s)", ErrTruncated, cause)
			return r.err
		}
	}
	var trailer [checksumSize]byte
	n, err := io.ReadFull(r.src, trailer[:])
	r.size += int64(n)
	if err != nil {
		r.err = fmt.Errorf("%w: artifact ends before checksum (%s)", ErrTruncated, cause)
		return r.err
	}
	if got := r.sum.Sum(nil); string(got) != string(trailer[:]) {
		r.err = fmt.Errorf("%w (payload unparseable at the damage: %v)", ErrChecksum, cause)
		return r.err
	}
	r.err = cause
	return r.err
}

// Header reads and validates the envelope preamble (idempotent).
func (r *Reader) Header() (Header, error) {
	if r.err != nil {
		return Header{}, r.err
	}
	if r.hdrDone {
		return r.hdr, nil
	}
	var m [len(magic)]byte
	if err := r.raw(m[:], "magic"); err != nil {
		return Header{}, err
	}
	if string(m[:]) != magic {
		r.err = fmt.Errorf("%w: %q", ErrMagic, m[:])
		return Header{}, r.err
	}
	var verLen [2]byte
	if err := r.raw(verLen[:1], "header"); err != nil {
		return Header{}, err
	}
	if verLen[0] != codecVersion {
		r.err = fmt.Errorf("%w: got %d, want %d", ErrCodecVersion, verLen[0], codecVersion)
		return Header{}, r.err
	}
	var payloadLen uint64
	for shift := 0; ; shift += 7 {
		if shift >= 64 {
			r.err = fmt.Errorf("%w: payload length is not a varint", ErrEncoding)
			return Header{}, r.err
		}
		if err := r.raw(verLen[1:], "header length field"); err != nil {
			return Header{}, err
		}
		payloadLen |= uint64(verLen[1]&0x7f) << shift
		if verLen[1] < 0x80 {
			break
		}
	}
	if payloadLen > maxPayloadLen {
		r.err = fmt.Errorf("%w: implausible payload length %d", ErrEncoding, payloadLen)
		return Header{}, r.err
	}
	r.left = payloadLen

	av, err := r.pstring("analyzer version")
	if err != nil {
		return Header{}, err
	}
	slice, err := r.puvarint("slice index")
	if err != nil {
		return Header{}, err
	}
	slices, err := r.puvarint("slice count")
	if err != nil {
		return Header{}, err
	}
	if slices == 0 || slice >= slices || slices > 1<<20 {
		return Header{}, r.fault("slice %d of %d out of range", slice, slices)
	}
	var flags [1]byte
	if err := r.pread(flags[:], "flags"); err != nil {
		return Header{}, err
	}
	if flags[0]&^byte(flagSidecar) != 0 {
		return Header{}, r.fault("unknown flags 0x%02x", flags[0])
	}
	numFiles, err := r.puvarint("file count")
	if err != nil {
		return Header{}, err
	}
	// Every section costs at least a few bytes; a count beyond the
	// remaining payload cannot be real.
	if numFiles > r.left {
		return Header{}, r.fault("file count %d exceeds remaining payload (%d bytes)", numFiles, r.left)
	}
	r.hdr = Header{
		AnalyzerVersion: av,
		Slice:           int(slice),
		Slices:          int(slices),
		NumFiles:        int(numFiles),
		Sidecar:         flags[0]&flagSidecar != 0,
	}
	r.filesLeft = int(numFiles)
	r.hdrDone = true
	return r.hdr, nil
}

// Next returns the next file section, or io.EOF after the last one
// (call Finish then). The returned section is reused by the following
// Next call.
func (r *Reader) Next() (*FileSection, error) {
	if _, err := r.Header(); err != nil {
		return nil, err
	}
	if r.filesLeft == 0 {
		return nil, io.EOF
	}
	name, err := r.pstring("file name")
	if err != nil {
		return nil, err
	}
	if r.hasPrev && name <= r.prevName {
		return nil, r.fault("manifest not in sorted order (%q after %q)", name, r.prevName)
	}
	r.prevName, r.hasPrev = name, true
	r.sec = FileSection{Meta: FileMeta{Name: name}}
	if err := r.pread(r.sec.Meta.SHA256[:], "content hash"); err != nil {
		return nil, err
	}
	if r.sec.Meta.ParseError, err = r.pstring("parse error"); err != nil {
		return nil, err
	}
	if r.hdr.Sidecar {
		if err := r.pread(r.sec.Key[:], "sidecar key"); err != nil {
			return nil, err
		}
		cost, err := r.puvarint("sidecar cost")
		if err != nil {
			return nil, err
		}
		r.sec.Cost = time.Duration(cost)
	}
	// A fresh buffer per section: the decoded graph and Enc stay valid
	// for the caller while peak memory remains one section.
	enc, err := r.pbytes("graph section")
	if err != nil {
		return nil, err
	}
	g, tail, err := propgraph.DecodeBinary(enc)
	if err != nil {
		return nil, r.fault("graph section for %q: %v", name, err)
	}
	if len(tail) != 0 {
		return nil, r.fault("%d bytes after graph for %q", len(tail), name)
	}
	r.sec.Graph = g
	r.sec.Enc = enc
	r.filesLeft--
	return &r.sec, nil
}

// Finish consumes the trailer and settles the running checksum; only a
// nil return validates everything the reader handed out. It also
// rejects bytes after the trailer (ErrTrailing) — an artifact stream
// carries exactly one artifact.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if _, err := r.Header(); err != nil {
		return err
	}
	if r.filesLeft > 0 {
		r.err = fmt.Errorf("shard: Finish called with %d file sections unread", r.filesLeft)
		return r.err
	}
	if r.left > 0 {
		return r.fault("%d payload bytes after the last file section", r.left)
	}
	var trailer [checksumSize]byte
	n, err := io.ReadFull(r.src, trailer[:])
	r.size += int64(n)
	if err != nil {
		r.err = fmt.Errorf("%w: checksum incomplete", ErrTruncated)
		return r.err
	}
	if got := r.sum.Sum(nil); string(got) != string(trailer[:]) {
		r.err = ErrChecksum
		return r.err
	}
	var one [1]byte
	if m, _ := io.ReadFull(r.src, one[:]); m > 0 {
		r.size += int64(m)
		r.err = fmt.Errorf("%w: data after checksum", ErrTrailing)
		return r.err
	}
	return nil
}

// ReadOptions configures streaming artifact assembly.
type ReadOptions struct {
	// Cache, when non-nil, ingests the artifact's fpcache sidecar:
	// each file's entry is written under its shipped key so later
	// front-end runs over the same content hit instead of re-analyzing.
	// Entries are staged in memory and committed only after the
	// artifact's checksum settles — a corrupt artifact must not seed a
	// "valid" cache entry.
	Cache *fpcache.Cache
	// Metrics, when non-nil, receives stage.shard.stream and
	// shard.stream.bytes observations.
	Metrics *obs.Registry
	// Log, when non-nil, reports non-fatal sidecar write failures.
	Log *obs.Logger
}

// ReadArtifact streams one artifact from src: header, every file
// section (folding graphs into the slice union as they arrive), then
// the checksum trailer. Peak memory is one file section plus the
// accumulating slice graph — the encoded artifact is never resident.
func ReadArtifact(src io.Reader, opts ReadOptions) (*Artifact, error) {
	start := time.Now()
	r := NewReader(src)
	hdr, err := r.Header()
	if err != nil {
		return nil, err
	}
	a := &Artifact{
		AnalyzerVersion: hdr.AnalyzerVersion,
		Slice:           hdr.Slice,
		Slices:          hdr.Slices,
		Sidecar:         hdr.Sidecar,
		Files:           make([]FileMeta, 0, hdr.NumFiles),
		FileHashes:      make([][32]byte, 0, hdr.NumFiles),
		FileEvents:      make([]int, 0, hdr.NumFiles),
	}
	type staged struct {
		key  [32]byte
		data []byte
	}
	var sidecar []staged
	ub := propgraph.NewUnionBuilder()
	for {
		sec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		a.Files = append(a.Files, sec.Meta)
		a.FileHashes = append(a.FileHashes, sha256.Sum256(sec.Enc))
		a.FileEvents = append(a.FileEvents, len(sec.Graph.Events))
		if hdr.Sidecar {
			a.SidecarKeys = append(a.SidecarKeys, sec.Key)
			a.SidecarCosts = append(a.SidecarCosts, sec.Cost)
			if opts.Cache != nil {
				sidecar = append(sidecar, staged{sec.Key, fpcache.EncodeRawEntry(sec.Enc, sec.Meta.ParseError, sec.Cost)})
			}
		}
		ub.Add(sec.Graph)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	a.Graph = ub.Graph()
	a.Size = r.Size()
	// The trailer has settled; only now may sidecar entries become
	// visible cache state.
	for _, s := range sidecar {
		if _, err := opts.Cache.PutRawKey(s.key, s.data); err != nil {
			opts.Log.Log("shard.sidecar", "error", err)
		}
	}
	if opts.Metrics != nil {
		opts.Metrics.Add(obs.CounterShardStreamBytes, a.Size)
		opts.Metrics.ObserveDuration(obs.StageShardStream, time.Since(start))
	}
	return a, nil
}
