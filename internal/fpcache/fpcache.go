// Package fpcache is the persistent, content-addressed cache of per-file
// front-end results that makes repeated corpus runs incremental: a file
// whose content has not changed skips parse + dataflow entirely and its
// propagation graph is loaded back from disk.
//
// Layout and key derivation: one entry per file under the cache
// directory, named <key>.fpc where key = sha256 over the analyzer
// version constant, the file's corpus path, and the file content (each
// length-prefixed). The path participates in the key because the cached
// result embeds it — event locations and parse-error text both carry the
// file name — so a renamed file re-analyzes once instead of replaying a
// stale name. Invalidation is therefore automatic: editing a file,
// renaming it, or bumping AnalyzerVersion changes the key and the old
// entry is simply never looked up again.
//
// Entry format: magic + codec version + payload (recorded analysis cost,
// parse-error text, propagation graph in propgraph's deterministic
// binary codec) + sha256 checksum of everything before it.
//
// Two properties the rest of the pipeline relies on:
//
//   - Corruption tolerance: a truncated, tampered, or stale-version
//     entry is a cache miss, never an error — the caller re-analyzes and
//     the write-back repairs the entry.
//   - Atomicity: Put goes through envelope.WriteFile, so concurrent
//     readers (and crashed writers) never observe a half-written entry.
package fpcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"seldon/internal/envelope"
	"seldon/internal/propgraph"
)

// AnalyzerVersion names the semantics of the per-file front-end
// (pytoken + pyparse + dataflow + the propgraph binary codec). Bump it
// whenever any of those changes observable output: every existing cache
// entry then misses and is rebuilt, instead of replaying stale results.
const AnalyzerVersion = "seldon-frontend-v1"

const (
	magic = "SFPC"
	// codecVersion 2: the embedded propagation graph switched to
	// propgraph's symbol-table binary codec (v2). Version-1 entries fail
	// to decode, which Get reports as a miss — the file re-analyzes once
	// and the write-back overwrites the entry in place (same key), so old
	// caches invalidate by design without leaving orphans.
	codecVersion = 2
	entrySuffix  = ".fpc"
)

// Entry is one cached per-file front-end result.
type Entry struct {
	// Graph is the file's propagation graph.
	Graph *propgraph.Graph
	// ParseError is the recovered parse failure's text ("" for a clean
	// parse); analysis ran over the recovered AST either way, matching
	// the live pipeline's contract.
	ParseError string
	// Cost is the parse+dataflow wall time paid when the entry was
	// produced — what a later hit avoids. It is metadata for cache
	// accounting, not part of the analysis result.
	Cost time.Duration
	// Size is the entry's on-disk size in bytes; set by Get.
	Size int64
}

// Stats is a point-in-time snapshot of a Cache's counters.
type Stats struct {
	Hits, Misses            int64
	BytesRead, BytesWritten int64
}

// Cache is a handle on a cache directory. All methods are safe for
// concurrent use; entries for distinct keys never contend, and the
// atomic-rename write makes same-key races benign (last writer wins with
// a complete entry).
type Cache struct {
	dir string

	hits, misses            atomic.Int64
	bytesRead, bytesWritten atomic.Int64
}

// Open prepares dir (creating it if needed) and returns a handle.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fpcache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

// KeyBytes derives the content address of a (path, content) pair under
// the current AnalyzerVersion, in raw form — what shard sidecars ship on
// the wire (32 bytes instead of 64 hex digits).
func KeyBytes(name, content string) (out [sha256.Size]byte) {
	h := sha256.New()
	var lenBuf [8]byte
	part := func(s string) {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(s)))
		h.Write(lenBuf[:])
		h.Write([]byte(s))
	}
	part(AnalyzerVersion)
	part(name)
	part(content)
	h.Sum(out[:0])
	return out
}

// Key is KeyBytes in the hex form entries are named by on disk.
func Key(name, content string) string {
	k := KeyBytes(name, content)
	return hex.EncodeToString(k[:])
}

func (c *Cache) entryPath(key string) string {
	return filepath.Join(c.dir, key+entrySuffix)
}

// encode renders an entry in the on-disk format.
func (e *Entry) encode() []byte {
	return EncodeRawEntry(e.Graph.AppendBinary(nil), e.ParseError, e.Cost)
}

// EncodeRawEntry renders an entry in the on-disk format from an
// already-encoded graph (propgraph binary bytes) instead of a live
// Graph. Shard-sidecar ingestion uses it directly: the coordinator
// holds the worker's verified graph section bytes, and re-encoding a
// decoded graph would only burn CPU to produce the identical bytes (the
// codec is deterministic).
func EncodeRawEntry(graphEnc []byte, parseErr string, cost time.Duration) []byte {
	buf := make([]byte, 0, len(magic)+2+16+len(parseErr)+len(graphEnc)+envelope.ChecksumSize)
	buf = append(buf, magic...)
	buf = binary.AppendUvarint(buf, codecVersion)
	buf = binary.AppendVarint(buf, int64(cost))
	buf = envelope.AppendBytesV(buf, parseErr)
	buf = append(buf, graphEnc...)
	return envelope.Seal(buf)
}

// PutRawKey stores pre-encoded entry bytes (EncodeRawEntry) under a raw
// key (KeyBytes), atomically. The caller vouches that data is a
// well-formed entry for that key; a wrong claim costs nothing but a
// wasted slot — Get re-validates the checksum and codec on read and
// treats a bad entry as a miss.
func (c *Cache) PutRawKey(key [sha256.Size]byte, data []byte) (int64, error) {
	if err := envelope.WriteFile(c.entryPath(hex.EncodeToString(key[:])), data); err != nil {
		return 0, fmt.Errorf("fpcache: %w", err)
	}
	c.bytesWritten.Add(int64(len(data)))
	return int64(len(data)), nil
}

// decodeEntry parses and validates an on-disk entry.
func decodeEntry(data []byte) (*Entry, error) {
	body, err := envelope.Open(data, magic)
	if err != nil {
		return nil, fmt.Errorf("fpcache: %w", err)
	}
	r := envelope.NewReader(body)
	ver, cost, parseErr := r.Uvarint(), r.Varint(), r.StringV()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("fpcache: entry header: %w", err)
	}
	if ver != codecVersion {
		return nil, fmt.Errorf("fpcache: unsupported codec version %d", ver)
	}
	if cost < 0 {
		return nil, fmt.Errorf("fpcache: bad cost field")
	}
	g, tail, err := propgraph.DecodeBinary(r.Rest())
	if err != nil {
		return nil, err
	}
	if len(tail) != 0 {
		return nil, fmt.Errorf("fpcache: %d trailing bytes after graph", len(tail))
	}
	return &Entry{Graph: g, ParseError: parseErr, Cost: time.Duration(cost), Size: int64(len(data))}, nil
}

// Get looks up the entry for (name, content). Any failure — absent
// entry, unreadable file, corruption, version skew — is reported as a
// miss; Get never errors.
func (c *Cache) Get(name, content string) (*Entry, bool) {
	data, err := os.ReadFile(c.entryPath(Key(name, content)))
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	e, err := decodeEntry(data)
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	c.bytesRead.Add(e.Size)
	return e, true
}

// Put stores the entry for (name, content) atomically and returns the
// bytes written.
func (c *Cache) Put(name, content string, e *Entry) (int64, error) {
	return c.PutRawKey(KeyBytes(name, content), e.encode())
}

// Clear removes every cache entry (and any abandoned temp file) from
// the directory, leaving the directory itself in place.
func (c *Cache) Clear() error {
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("fpcache: %w", err)
	}
	for _, de := range des {
		name := de.Name()
		if strings.HasSuffix(name, entrySuffix) || envelope.IsTemp(name) {
			if err := os.Remove(filepath.Join(c.dir, name)); err != nil {
				return fmt.Errorf("fpcache: %w", err)
			}
		}
	}
	return nil
}

// Len counts the entries currently on disk.
func (c *Cache) Len() (int, error) {
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return 0, fmt.Errorf("fpcache: %w", err)
	}
	n := 0
	for _, de := range des {
		if strings.HasSuffix(de.Name(), entrySuffix) {
			n++
		}
	}
	return n, nil
}

// Stats snapshots the handle's hit/miss/byte counters (cumulative since
// Open, across every Get/Put through this handle).
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		BytesRead:    c.bytesRead.Load(),
		BytesWritten: c.bytesWritten.Load(),
	}
}
