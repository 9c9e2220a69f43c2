// Package shard implements distributed corpus learning: the wire format,
// worker, and coordinator sides of a map/reduce over propagation graphs.
//
// A shard artifact is one worker's output for one deterministic slice of
// a corpus: a versioned envelope carrying the analyzer version, the
// slice coordinates (index i of n), and one section per corpus file —
// the file's manifest entry (name, content sha256, parse-error text),
// an optional fpcache sidecar entry (content-addressed cache key plus
// recorded analysis cost), and the file's propagation graph in
// propgraph's v2 binary codec with a per-shard symbol table. The whole
// artifact is sha256-checksummed like an fpcache entry — but where a
// corrupt cache entry is silently re-analyzed, a corrupt shard artifact
// is a hard, named error: the coordinator is reassembling a corpus from
// pieces it cannot recompute, so truncation, bit flips, stale codecs,
// duplicate slices, and missing slices each fail loudly and distinctly
// (see the Err* sentinels).
//
// Envelope layout (all integers varint unless noted):
//
//	magic "SSHD" (4 bytes)
//	codec version (1 byte)
//	payload length (uvarint)
//	payload:
//	  analyzer version (length-prefixed string)
//	  slice index, slice count (uvarint, index < count)
//	  flags (1 byte; bit 0 = fpcache sidecar present, others zero)
//	  file count (uvarint), then per file in sorted name order:
//	    name (string), content sha256 (32 raw bytes), parse error (string)
//	    [flags bit 0] fpcache key (32 raw bytes), analysis cost (uvarint ns)
//	    graph length (uvarint), graph (propgraph v2 binary codec)
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
	"seldon/internal/propgraph"
)

const (
	magic = "SSHD"
	// codecVersion 2 interleaves per-file manifest + sidecar + graph
	// sections (v1 carried one slice-merged graph after the manifest);
	// bump it whenever the envelope layout changes. A version skew is a
	// named error, not a silent re-analyze — the coordinator cannot
	// rebuild a shard it did not analyze.
	codecVersion = 2
	checksumSize = envelope.ChecksumSize

	// flagSidecar marks artifacts carrying the fpcache sidecar (per-file
	// cache key + recorded cost alongside the graph bytes).
	flagSidecar = 0x01

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

// FileMeta is one corpus file's manifest entry: enough for the
// coordinator to reproduce the corpus fingerprint and the parse-error
// report without the file contents.
type FileMeta struct {
	Name string
	// SHA256 is the hash of the file's content (see specio.FileHash for
	// the hex form the fingerprint is built from).
	SHA256 [sha256.Size]byte
	// ParseError is the recovered parse failure's text ("" for a clean
	// parse); analysis ran over the recovered AST either way.
	ParseError string
}

// Artifact is one shard: the manifest of the corpus slice it covers and
// the slice's per-file propagation graphs, plus the per-file facts the
// merge derives span and sidecar data from.
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
	// its own symbol table: what Encode ships, one section a file, what
	// decoding gives back, and what the merge appends to the global union.
	FileGraphs []*propgraph.Graph
	// FileHashes is the sha256 of each file's encoded graph section and
	// FileEvents its event count, both in manifest order — what the
	// coordinator needs to hand constraints.BuildIncremental its spans.
	FileHashes [][32]byte
	FileEvents []int
	// Sidecar marks the fpcache sidecar as present: SidecarKeys carries
	// each file's content-addressed cache key (fpcache.KeyBytes) and
	// SidecarCosts its recorded parse+dataflow cost, in manifest order.
	Sidecar      bool
	SidecarKeys  [][32]byte
	SidecarCosts []time.Duration
	// Size is the artifact's encoded size in bytes; set by decoding (0
	// for artifacts built in-process).
	Size int64
}

// Encode renders the artifact in the wire format. The bytes are a pure
// function of the artifact (the embedded graph codec is deterministic
// and the manifest is ordered), so identical shards encode identically.
// The artifact must carry its per-file graphs (FileGraphs aligned with
// Files), as a built and a decoded one both do: a decoded artifact
// encodes back to the bytes it was read from.
func (a *Artifact) Encode() []byte {
	if len(a.FileGraphs) != len(a.Files) {
		panic(fmt.Sprintf("shard: Encode: %d file graphs for %d manifest entries", len(a.FileGraphs), len(a.Files)))
	}
	sidecar := a.Sidecar
	if sidecar && (len(a.SidecarKeys) != len(a.Files) || len(a.SidecarCosts) != len(a.Files)) {
		panic("shard: Encode: sidecar flagged but keys/costs are not aligned with the manifest")
	}

	payload := make([]byte, 0, 4096)
	payload = envelope.AppendBytesV(payload, a.AnalyzerVersion)
	payload = binary.AppendUvarint(payload, uint64(a.Slice))
	payload = binary.AppendUvarint(payload, uint64(a.Slices))
	var flags byte
	if sidecar {
		flags |= flagSidecar
	}
	payload = append(payload, flags)
	payload = binary.AppendUvarint(payload, uint64(len(a.Files)))
	var graphBuf []byte
	for i := range a.Files {
		f := &a.Files[i]
		payload = envelope.AppendBytesV(payload, f.Name)
		payload = append(payload, f.SHA256[:]...)
		payload = envelope.AppendBytesV(payload, f.ParseError)
		if sidecar {
			payload = append(payload, a.SidecarKeys[i][:]...)
			payload = binary.AppendUvarint(payload, uint64(a.SidecarCosts[i]))
		}
		graphBuf = a.FileGraphs[i].AppendBinary(graphBuf[:0])
		payload = binary.AppendUvarint(payload, uint64(len(graphBuf)))
		payload = append(payload, graphBuf...)
	}

	out := make([]byte, 0, len(magic)+1+binary.MaxVarintLen64+len(payload)+checksumSize)
	out = append(out, magic...)
	out = append(out, codecVersion)
	out = envelope.AppendBytesV(out, payload)
	return envelope.Seal(out)
}

// ReadFile reads the artifact at path; a fault names the path.
func ReadFile(path string, opts ReadOptions) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	a, err := ReadArtifact(f, opts)
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
