package shard

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"time"

	"seldon/internal/envelope"
	"seldon/internal/fpcache"
	"seldon/internal/obs"
	"seldon/internal/propgraph"
)

// ReadOptions configures artifact decode.
type ReadOptions struct {
	// Cache, when non-nil, ingests the artifact's fpcache sidecar:
	// each file's entry is written under its shipped key so later
	// front-end runs over the same content hit instead of re-analyzing.
	// Entries are written only after the whole artifact has verified and
	// parsed — a corrupt artifact must not seed a "valid" cache entry.
	Cache *fpcache.Cache
	// Metrics, when non-nil, receives stage.shard.stream and
	// shard.stream.bytes observations.
	Metrics *obs.Registry
	// Log, when non-nil, reports non-fatal sidecar write failures.
	Log *obs.Logger
}

// openFrame checks that data is exactly one artifact — magic, codec
// version, the payload's declared length, the payload, and the sha256 of
// all of it, with nothing after — and returns the payload (aliasing
// data). The declared length is what tells the faults apart: fewer bytes
// than it promises is a transfer that ended early, the promised bytes
// under the wrong hash is damage, and more bytes is a second artifact.
// They are named in the order a reader of the bytes meets them.
func openFrame(data []byte) ([]byte, error) {
	if len(data) < len(magic) {
		return nil, fmt.Errorf("%w: magic incomplete", ErrTruncated)
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: %q", ErrMagic, data[:len(magic)])
	}
	r := envelope.NewReader(data[len(magic):])
	if v := r.Byte(); r.Err() == nil && v != codecVersion {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrCodecVersion, v, codecVersion)
	}
	n := r.Uvarint()
	switch err := r.Err(); {
	case errors.Is(err, ErrTruncated):
		return nil, fmt.Errorf("%w: header incomplete", ErrTruncated)
	case err != nil:
		return nil, fmt.Errorf("%w: payload length: %v", ErrEncoding, err)
	case n > maxPayloadLen:
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrEncoding, n)
	}
	body := r.Rest()
	if uint64(len(body)) < n+checksumSize {
		return nil, fmt.Errorf("%w: %d bytes of payload and checksum declared, %d present",
			ErrTruncated, n+checksumSize, len(body))
	}
	end := len(data) - len(body) + int(n)
	if sum := sha256.Sum256(data[:end]); !bytes.Equal(sum[:], data[end:end+checksumSize]) {
		return nil, ErrChecksum
	}
	if extra := len(data) - end - checksumSize; extra > 0 {
		return nil, fmt.Errorf("%w: %d bytes after checksum", ErrTrailing, extra)
	}
	return body[:n], nil
}

// minSection is the least a file section takes: its name's length, the
// content hash, the parse error's length and the graph's length.
const minSection = 1 + sha256.Size + 1 + 1

// readHeader reads a payload's preamble into a new artifact and returns
// it with the number of file sections that follow.
func readHeader(r *envelope.Reader) (*Artifact, int) {
	a := &Artifact{AnalyzerVersion: r.StringV()}
	slice, slices := r.Uvarint(), r.Uvarint()
	if slices == 0 || slice >= slices || slices > 1<<20 {
		r.Fail(fmt.Errorf("slice %d of %d out of range", slice, slices))
	}
	a.Slice, a.Slices = int(slice), int(slices)
	flags := r.Byte()
	if flags&^flagSidecar != 0 {
		r.Fail(fmt.Errorf("unknown flags 0x%02x", flags))
	}
	a.Sidecar = flags&flagSidecar != 0
	return a, r.Count(r.Uvarint(), minSection)
}

// section is one file's part of a payload, cut but not parsed. enc aliases
// the payload: the graph's bytes, whose sha256 is the span hash the
// incremental constraint builder keys flow blocks by. key and cost are
// the fpcache sidecar fields, zero without one.
type section struct {
	meta FileMeta
	key  [32]byte
	cost time.Duration
	enc  []byte
}

// readSection cuts the next file section; the cursor says whether it did.
func readSection(r *envelope.Reader, sidecar bool) (s section) {
	s.meta.Name = r.StringV()
	copy(s.meta.SHA256[:], r.Take(sha256.Size))
	s.meta.ParseError = r.StringV()
	if sidecar {
		copy(s.key[:], r.Take(len(s.key)))
		s.cost = time.Duration(r.Uvarint())
	}
	s.enc = r.BytesV()
	return s
}

// ReadArtifact reads one artifact from src to its end, checks its frame
// (openFrame), and only then parses the payload: one walk on the cursor
// cuts the file sections, whose graphs are decoded on every processor
// (propgraph.DecodeAll) and kept per file for the merge to union. The
// frame's faults keep their sentinels; a verified payload that does not
// parse is ErrEncoding with the fault a front-to-back reader meets first at
// any processor count: lowest section, fields before graph before name order.
func ReadArtifact(src io.Reader, opts ReadOptions) (*Artifact, error) {
	start := time.Now()
	data, err := io.ReadAll(src)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrTruncated, err)
	}
	payload, err := openFrame(data)
	if err != nil {
		return nil, err
	}
	r := envelope.NewReader(payload)
	a, n := readHeader(r)
	a.Files = make([]FileMeta, 0, n)
	encs := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		s := readSection(r, a.Sidecar)
		if r.Err() != nil {
			break
		}
		a.Files = append(a.Files, s.meta)
		encs = append(encs, s.enc)
		if a.Sidecar {
			a.SidecarKeys = append(a.SidecarKeys, s.key)
			a.SidecarCosts = append(a.SidecarCosts, s.cost)
		}
		// A name out of order ends the walk as a cursor fault does; a graph
		// fault in a section cut so far, this one included, comes before it.
		if i > 0 && s.meta.Name <= a.Files[i-1].Name {
			r.Fail(fmt.Errorf("manifest not in sorted order (%q after %q)", s.meta.Name, a.Files[i-1].Name))
			break
		}
	}
	graphs, bad, err := propgraph.DecodeAll(encs)
	if err != nil {
		return nil, fmt.Errorf("%w: graph section for %q: %v", ErrEncoding, a.Files[bad].Name, err)
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrEncoding, err)
	}
	a.FileGraphs = graphs
	a.FileHashes = make([][32]byte, len(encs))
	a.FileEvents = make([]int, len(encs))
	for i, enc := range encs {
		a.FileHashes[i] = sha256.Sum256(enc)
		a.FileEvents[i] = len(graphs[i].Events)
		// The whole artifact has verified and parsed; only now may sidecar
		// entries become visible cache state.
		if a.Sidecar && opts.Cache != nil {
			entry := fpcache.EncodeRawEntry(enc, a.Files[i].ParseError, a.SidecarCosts[i])
			if _, err := opts.Cache.PutRawKey(a.SidecarKeys[i], entry); err != nil {
				opts.Log.Log("shard.sidecar", "error", err)
			}
		}
	}
	a.Size = int64(len(data))
	if opts.Metrics != nil {
		opts.Metrics.Add(obs.CounterShardStreamBytes, a.Size)
		opts.Metrics.ObserveDuration(obs.StageShardStream, time.Since(start))
	}
	return a, nil
}
