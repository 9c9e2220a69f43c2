// Package shard implements distributed corpus learning: the wire format,
// worker, and coordinator sides of a map/reduce over propagation graphs.
//
// A shard artifact is one worker's output for one deterministic slice of
// a corpus: a versioned envelope carrying the analyzer version, the
// slice coordinates (index i of n), and one section per corpus file —
// the file's record (fpcache.Record: name, content sha256, parse-error
// text and the propagation graph in propgraph's v2 binary codec with a
// per-file symbol table), so an artifact is a pure function of its corpus
// slice. A coordinator derives each file's cache key from its name and
// content hash, so no key travels, and seeds its cache from any
// artifact. The whole artifact is sha256-checksummed like an fpcache
// entry — but where a corrupt cache entry is silently re-analyzed, a
// corrupt shard artifact is a hard, named error: the coordinator is
// reassembling a corpus from pieces it cannot recompute, so truncation,
// bit flips, stale codecs, duplicate slices, and missing slices each fail
// loudly and distinctly (see the Err* sentinels).
//
// Envelope layout (all integers varint unless noted):
//
//	magic "SSHD" (4 bytes)
//	codec version (1 byte)
//	payload length (uvarint)
//	payload:
//	  analyzer version (length-prefixed string)
//	  slice index, slice count (uvarint, index < count)
//	  the files in sorted name order, one fpcache.Record each
//	  (fpcache.AppendRecords: a uvarint count, then the records)
//	sha256 checksum over everything before it (32 bytes)
//
// An artifact is decoded whole, by one function on the cursor every
// persisted format shares (ReadArtifact, internal/envelope): the frame is
// checked first — length, then checksum — and only a verified payload is
// parsed: its sections cut aliasing the bytes read, their graphs decoded
// on every processor. The merge appends a decoded artifact's per-file
// graphs to the global union in manifest order, which numbers symbols as
// a union of slice unions would, so nothing changes byte-wise downstream.
//
// Determinism: slices are contiguous blocks of the corpus's sorted
// file-name order (core.SliceNames), each worker ships its per-file
// graphs in that order, and the coordinator unions them slice by slice
// in slice-index order with symbol translation — so the merged
// graph, and everything learned from it, is byte-identical to a
// single-process run over the concatenated corpus, at any shard count
// and any artifact arrival order.
package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"seldon/internal/envelope"
	"seldon/internal/fpcache"
	"seldon/internal/propgraph"
)

const (
	magic = "SSHD"
	// codecVersion 4: the file sections are an fpcache record list, and no
	// flags byte precedes it. Bump it whenever the envelope layout changes.
	// A version skew is a named error, not a silent re-analyze — the
	// coordinator cannot rebuild a shard it did not analyze.
	codecVersion = 4
	checksumSize = envelope.ChecksumSize

	// maxPayloadLen guards the declared payload length against
	// overflow-scale garbage; anything under it that exceeds the bytes in
	// hand is ordinary truncation.
	maxPayloadLen = 1 << 40
)

// Named ingestion errors. Every way an artifact can be unusable has a
// distinct sentinel so the coordinator (and its tests) can tell a
// truncated upload from a flipped bit from a stale worker — none of
// them is ever skipped silently. The four that concern the frame are the
// envelope's own.
var (
	// ErrTruncated: the input ends before the envelope's declared length
	// (an interrupted transfer or partial write).
	ErrTruncated = envelope.ErrTruncated
	// ErrMagic: the input does not start with the artifact magic.
	ErrMagic = envelope.ErrMagic
	// ErrCodecVersion: the envelope was written by an incompatible codec.
	ErrCodecVersion = errors.New("shard: unsupported codec version")
	// ErrChecksum: the envelope is complete but its bytes do not hash to
	// the stored checksum (bit rot or tampering).
	ErrChecksum = envelope.ErrChecksum
	// ErrTrailing: well-formed artifact followed by extra bytes.
	ErrTrailing = envelope.ErrTrailing
	// ErrEncoding: the checksum holds but the payload does not parse —
	// an encoder bug or a hand-crafted artifact.
	ErrEncoding = errors.New("shard: malformed payload")
	// ErrAnalyzerVersion: the artifact was produced by a front-end whose
	// semantics differ from this coordinator's.
	ErrAnalyzerVersion = errors.New("shard: analyzer version mismatch")
	// ErrSliceCount: artifacts disagree about how many slices the corpus
	// was cut into.
	ErrSliceCount = errors.New("shard: slice-count mismatch")
	// ErrDuplicateSlice: two artifacts claim the same slice index.
	ErrDuplicateSlice = errors.New("shard: duplicate slice")
	// ErrMissingSlice: a slice index has no artifact.
	ErrMissingSlice = errors.New("shard: missing slice")
	// ErrSliceOrder: the concatenated slice manifests are not in strictly
	// increasing file-name order — the slices overlap or were cut from
	// different partitionings of the corpus.
	ErrSliceOrder = errors.New("shard: slice ordering violation")
)

// FileMeta is one corpus file's manifest entry: its record, from which
// the coordinator reproduces the corpus fingerprint and the parse-error
// report and seeds its fpcache, and the sha256 of the record's graph
// bytes, the span hash the incremental constraint build keys flow blocks
// by.
type FileMeta struct {
	fpcache.Record
	GraphHash [sha256.Size]byte
}

func newFileMeta(rec fpcache.Record) FileMeta {
	return FileMeta{Record: rec, GraphHash: sha256.Sum256(rec.Graph)}
}

// Artifact is one shard: the manifest of the corpus slice it covers and
// the slice's per-file propagation graphs.
type Artifact struct {
	// AnalyzerVersion names the front-end semantics the shard was
	// analyzed under (fpcache.AnalyzerVersion).
	AnalyzerVersion string
	// Slice and Slices are the slice coordinates: index i of n.
	Slice, Slices int
	// Files lists the slice's manifest in sorted name order.
	Files []FileMeta
	// Graph is the union of the slice's per-file graphs, with its own
	// symbol table: set by Build only; a decoded artifact leaves it nil
	// and the merge does not read it.
	Graph *propgraph.Graph
	// FileGraphs holds the per-file graphs in manifest order, each with
	// its own symbol table, decoded from the manifest's graph bytes: what
	// the merge appends to the global union and cuts spans by.
	FileGraphs []*propgraph.Graph
	// Size is the artifact's encoded size in bytes; set by decoding (0
	// for artifacts built in-process).
	Size int64
}

// Encode renders the artifact in the wire format. The bytes are a pure
// function of the artifact (the embedded graph codec is deterministic
// and the manifest is ordered), so identical shards encode identically;
// a decoded artifact encodes back to the bytes it was read from.
func (a *Artifact) Encode() []byte {
	payload := make([]byte, 0, 4096)
	payload = envelope.AppendBytesV(payload, a.AnalyzerVersion)
	payload = binary.AppendUvarint(payload, uint64(a.Slice))
	payload = binary.AppendUvarint(payload, uint64(a.Slices))
	payload = fpcache.AppendRecords(payload, len(a.Files), func(i int) *fpcache.Record { return &a.Files[i].Record })

	out := make([]byte, 0, len(magic)+1+binary.MaxVarintLen64+len(payload)+checksumSize)
	out = append(out, magic...)
	out = append(out, codecVersion)
	out = envelope.AppendBytesV(out, payload)
	return envelope.Seal(out)
}

// ReadFile reads the artifact at path; a fault names the path.
func ReadFile(path string, opts ReadOptions) (*Artifact, error) {
	start := time.Now()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a, err := parseArtifact(data, opts, start)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// Write encodes the artifact to w and returns the bytes written.
func Write(w io.Writer, a *Artifact) (int64, error) {
	data := a.Encode()
	n, err := w.Write(data)
	return int64(n), err
}

// WriteFile writes the artifact to path atomically, so a crashed worker
// never leaves a partial artifact that a coordinator could pick up.
func WriteFile(path string, a *Artifact) (int64, error) {
	data := a.Encode()
	if err := envelope.WriteFile(path, data); err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}
