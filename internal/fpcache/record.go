package fpcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"iter"
	"math"
	"time"

	"seldon/internal/envelope"
	"seldon/internal/specio"
)

// Record is one corpus file's facts, the unit every per-file carrier
// persists: a cache entry's body, a shard artifact's file section and an
// entry of a session's state file are each one Record written by
// AppendRecord. A carrier with no use for a field writes its zero value
// and refuses to read another (a session keeps no cost, an artifact
// without its sidecar ships none).
type Record struct {
	// Name is the file's corpus path.
	Name string
	// Source is the sha256 of the file's source text. All zero means the
	// graph was spliced without its source, which is then unknown.
	Source [sha256.Size]byte
	// ParseError is the recovered parse failure's text ("" for a clean
	// parse); analysis ran over the recovered AST either way.
	ParseError string
	// Cost is the parse+dataflow wall time the analysis took: what a cache
	// hit on the record avoids. It is never negative.
	Cost time.Duration
	// Graph is the file's propagation graph in propgraph's binary codec.
	Graph []byte
}

// MinRecordSize is the least AppendRecord writes.
const MinRecordSize = 1 + sha256.Size + 1 + 1 + 1

// AppendRecord appends rec in the one layout every carrier shares: name
// and parse error as uvarint-prefixed strings, the source hash as 32 raw
// bytes between them, the cost as a uvarint of nanoseconds, and the graph
// as uvarint-prefixed bytes.
func AppendRecord(b []byte, rec *Record) []byte {
	b = envelope.AppendBytesV(b, rec.Name)
	b = append(b, rec.Source[:]...)
	b = envelope.AppendBytesV(b, rec.ParseError)
	b = binary.AppendUvarint(b, uint64(rec.Cost))
	return envelope.AppendBytesV(b, rec.Graph)
}

// ReadRecord reads what AppendRecord wrote; the cursor says whether it
// did. The graph's bytes alias the cursor's buffer and are not decoded.
// A cost past the largest time.Duration is refused, so what reads back
// appends to the same bytes.
func ReadRecord(r *envelope.Reader) (rec Record) {
	rec.Name = r.StringV()
	copy(rec.Source[:], r.Take(sha256.Size))
	rec.ParseError = r.StringV()
	cost := r.Uvarint()
	if cost > math.MaxInt64 {
		r.Fail(errors.New("fpcache: record cost out of range"))
	}
	rec.Cost = time.Duration(cost)
	rec.Graph = r.BytesV()
	return rec
}

// The facts a corpus is summarized by, derived from its records (in name
// order) the same way wherever they are kept: the shard merge and the
// incremental session both go through these.

// ParseErrorFiles names, in order, the records whose parse reported an
// error.
func ParseErrorFiles(recs iter.Seq[Record]) []string {
	var names []string
	for rec := range recs {
		if rec.ParseError != "" {
			names = append(names, rec.Name)
		}
	}
	return names
}

// Fingerprint is specio.Fingerprint of the corpus the records were
// analyzed from, composed from their source hashes, or "" when one of
// them has none.
func Fingerprint(recs iter.Seq[Record]) string {
	var names, hashes []string
	for rec := range recs {
		if rec.Source == [sha256.Size]byte{} {
			return ""
		}
		names = append(names, rec.Name)
		hashes = append(hashes, hex.EncodeToString(rec.Source[:]))
	}
	return specio.FingerprintHashes(names, hashes)
}
