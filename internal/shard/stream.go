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
)

// ReadOptions configures artifact decode.
type ReadOptions struct {
	// Cache, when non-nil, ingests the artifact's records: each file's
	// record is cached, so later front-end runs over the same content hit
	// instead of re-analyzing. Entries are written only after the whole
	// artifact has verified and parsed — a corrupt artifact must not seed
	// a "valid" cache entry.
	Cache *fpcache.Cache
	// Metrics, when non-nil, receives stage.shard.stream and
	// shard.stream.bytes observations.
	Metrics *obs.Registry
	// Log, when non-nil, reports non-fatal cache write failures.
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

// readHeader reads a payload's preamble, which precedes the file
// sections, into a new artifact.
func readHeader(r *envelope.Reader) *Artifact {
	a := &Artifact{AnalyzerVersion: r.StringV()}
	slice, slices := r.Uvarint(), r.Uvarint()
	if slices == 0 || slice >= slices || slices > 1<<20 {
		r.Fail(fmt.Errorf("slice %d of %d out of range", slice, slices))
	}
	a.Slice, a.Slices = int(slice), int(slices)
	return a
}

// ReadArtifact reads one artifact from src to its end, and parseArtifact
// parses it. A source that knows its length, as a bytes.Reader does, is
// read into one buffer of that size, as ReadFile's os.ReadFile reads a
// file; any other through io.ReadAll.
func ReadArtifact(src io.Reader, opts ReadOptions) (*Artifact, error) {
	start := time.Now()
	var data []byte
	var err error
	if l, ok := src.(interface{ Len() int }); ok {
		buf := bytes.NewBuffer(make([]byte, 0, l.Len()+bytes.MinRead))
		_, err = buf.ReadFrom(src)
		data = buf.Bytes()
	} else {
		data, err = io.ReadAll(src)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrTruncated, err)
	}
	return parseArtifact(data, opts, start)
}

// parseArtifact checks an artifact's frame (openFrame), and only then
// parses the payload: its file sections are a record list
// (fpcache.ReadRecords), whose graphs are decoded on every processor and
// kept per file for the merge to union. The frame's faults keep their
// sentinels; a verified payload that does not parse is ErrEncoding with
// the fault a front-to-back reader meets first at any processor count.
// start is when reading began.
func parseArtifact(data []byte, opts ReadOptions, start time.Time) (*Artifact, error) {
	payload, err := openFrame(data)
	if err != nil {
		return nil, err
	}
	r := envelope.NewReader(payload)
	a := readHeader(r)
	recs, graphs, err := fpcache.ReadRecords(r)
	if err == nil {
		err = r.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrEncoding, err)
	}
	a.Files = make([]FileMeta, len(recs))
	for i, rec := range recs {
		a.Files[i] = newFileMeta(rec)
	}
	a.FileGraphs = graphs
	// The whole artifact has verified and parsed; only now may its
	// records become visible cache state.
	if opts.Cache != nil {
		for i := range a.Files {
			if _, err := opts.Cache.PutRecord(&a.Files[i].Record); err != nil {
				opts.Log.Log("shard.ingest", "error", err)
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
