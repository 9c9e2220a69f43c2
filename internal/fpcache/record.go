package fpcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"iter"

	"seldon/internal/envelope"
	"seldon/internal/propgraph"
	"seldon/internal/specio"
)

// Record is one corpus file's facts, the unit every per-file carrier
// persists: a cache entry's body, a shard artifact's file section and an
// entry of a session's state file are each one Record written by
// AppendRecord. Every field is a function of the file and the analyzer,
// so two analyses of one file write one record.
type Record struct {
	// Name is the file's corpus path.
	Name string
	// Source is the sha256 of the file's source text. All zero means the
	// graph was spliced without its source, which is then unknown.
	Source [sha256.Size]byte
	// ParseError is the recovered parse failure's text ("" for a clean
	// parse); analysis ran over the recovered AST either way.
	ParseError string
	// Graph is the file's propagation graph in propgraph's binary codec.
	Graph []byte
}

// minRecordSize is the least AppendRecord writes.
const minRecordSize = 1 + sha256.Size + 1 + 1

// AppendRecord appends rec in the one layout every carrier shares: name
// and parse error as uvarint-prefixed strings, the source hash as 32 raw
// bytes between them, and the graph as uvarint-prefixed bytes.
func AppendRecord(b []byte, rec *Record) []byte {
	b = envelope.AppendBytesV(b, rec.Name)
	b = append(b, rec.Source[:]...)
	b = envelope.AppendBytesV(b, rec.ParseError)
	return envelope.AppendBytesV(b, rec.Graph)
}

// ReadRecord reads what AppendRecord wrote; the cursor says whether it
// did. The graph's bytes alias the cursor's buffer and are not decoded.
func ReadRecord(r *envelope.Reader) (rec Record) {
	rec.Name = r.StringV()
	copy(rec.Source[:], r.Take(sha256.Size))
	rec.ParseError = r.StringV()
	rec.Graph = r.BytesV()
	return rec
}

// AppendRecords appends a list of n records, rec(i) the ith, in the one
// layout the carriers that hold many share: the count as a uvarint, then
// each record. It writes the records as they are; ReadRecords takes them
// back only in strictly ascending name order.
func AppendRecords(b []byte, n int, rec func(i int) *Record) []byte {
	b = binary.AppendUvarint(b, uint64(n))
	for i := 0; i < n; i++ {
		b = AppendRecord(b, rec(i))
	}
	return b
}

// ReadRecords reads what AppendRecords wrote, its names strictly
// ascending, and decodes every record's graph (propgraph.DecodeAll),
// returning the records, their graph bytes aliasing the cursor's buffer,
// and the graphs in the same order. Of several faults it reports the one a
// front-to-back reader meets first, at any processor count: lowest record,
// its fields before its graph before its name's order. A fault of the
// cursor's is also latched on it.
func ReadRecords(r *envelope.Reader) ([]Record, []*propgraph.Graph, error) {
	n := r.Count(r.Uvarint(), minRecordSize)
	recs := make([]Record, 0, n)
	encs := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		rec := ReadRecord(r)
		if r.Err() != nil {
			break
		}
		recs, encs = append(recs, rec), append(encs, rec.Graph)
		// A name out of order ends the walk as a cursor fault does; a graph
		// fault in a record read so far, this one included, comes before it.
		if i > 0 && rec.Name <= recs[i-1].Name {
			r.Fail(fmt.Errorf("records not in sorted order (%q after %q)", rec.Name, recs[i-1].Name))
			break
		}
	}
	graphs, bad, err := propgraph.DecodeAll(encs)
	if err != nil {
		return nil, nil, fmt.Errorf("graph section for %q: %v", recs[bad].Name, err)
	}
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	return recs, graphs, nil
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
