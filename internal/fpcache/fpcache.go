// Package fpcache is the persistent, content-addressed cache of per-file
// front-end results that makes repeated corpus runs incremental: a file
// whose content has not changed skips parse + dataflow entirely and its
// propagation graph is loaded back from disk.
//
// Layout and key derivation: one entry per file under the cache
// directory, named <key>.fpc where key = sha256 over the analyzer
// version constant, the file's corpus path, and the sha256 of the file
// content (each length-prefixed). The path participates in the key
// because the cached result embeds it — event locations and parse-error
// text both carry the file name — so a renamed file re-analyzes once
// instead of replaying a stale name. Invalidation is therefore automatic:
// editing a file, renaming it, or bumping AnalyzerVersion changes the key
// and the old entry is never looked up again. The directory's version
// marker names the codec and AnalyzerVersion that wrote it; Open, finding
// another one or none, removes every entry no current key can reach.
// Because the key needs only a file's name and source hash, whoever holds
// a file's Record can derive it: a shard coordinator seeds its cache from
// the records an artifact carries without the worker shipping any key.
//
// Entry format: magic + codec version + the file's Record (name, source
// hash, parse-error text, recorded analysis cost, propagation graph in
// propgraph's deterministic binary codec) + sha256 checksum of everything
// before it.
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
const AnalyzerVersion = "seldon-frontend-v2"

const (
	magic = "SFPC"
	// codecVersion 3: the body is the file's Record, and the key is over
	// the source's hash. An entry of another version is a miss, like any
	// entry that does not decode, and Open removes it.
	codecVersion = 3
	entrySuffix  = ".fpc"
	markerName   = "VERSION"
)

// marker is what markerName holds in a directory whose entries the current
// codec and AnalyzerVersion wrote.
var marker = fmt.Sprintf("%s %d %s\n", magic, codecVersion, AnalyzerVersion)

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

// Open prepares dir (creating it if needed) and returns a handle. When
// dir's version marker is missing or names another codec or
// AnalyzerVersion, Open first removes every entry that no current key can
// reach, then writes the current marker; when it matches, Open reads
// nothing else.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fpcache: %w", err)
	}
	c := &Cache{dir: dir}
	if err := c.sweep(); err != nil {
		return nil, fmt.Errorf("fpcache: %w", err)
	}
	return c, nil
}

// sweep removes the entries no current key can reach — written under
// another codec or AnalyzerVersion, or not decoding at all — unless the
// marker says the current version wrote the directory. It reads every
// entry rather than clearing them all, so a handle of the current version
// never removes another's entries, whichever of them wrote the marker.
func (c *Cache) sweep() error {
	path := filepath.Join(c.dir, markerName)
	if b, err := os.ReadFile(path); err == nil && string(b) == marker {
		return nil
	}
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return err
	}
	for _, de := range des {
		name := de.Name()
		if !strings.HasSuffix(name, entrySuffix) {
			continue
		}
		entry := filepath.Join(c.dir, name)
		if data, err := os.ReadFile(entry); err == nil {
			if rec, err := readEntry(data); err == nil && key(rec.Name, rec.Source)+entrySuffix == name {
				continue
			}
		}
		if err := os.Remove(entry); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return envelope.WriteFile(path, []byte(marker))
}

// key derives the content address of a file's record under the current
// AnalyzerVersion.
func key(name string, source [sha256.Size]byte) string {
	h := sha256.New()
	var lenBuf [8]byte
	part := func(p []byte) {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	part([]byte(AnalyzerVersion))
	part([]byte(name))
	part(source[:])
	return hex.EncodeToString(h.Sum(nil))
}

// Key is the name (without suffix) of the entry for a (path, content)
// pair.
func Key(name, content string) string {
	return key(name, sha256.Sum256([]byte(content)))
}

func (c *Cache) entryPath(key string) string {
	return filepath.Join(c.dir, key+entrySuffix)
}

// appendEntry renders a record in the on-disk format.
func appendEntry(rec *Record) []byte {
	buf := make([]byte, 0, len(magic)+1+MinRecordSize+len(rec.Name)+len(rec.ParseError)+16+len(rec.Graph)+envelope.ChecksumSize)
	buf = append(buf, magic...)
	buf = binary.AppendUvarint(buf, codecVersion)
	buf = AppendRecord(buf, rec)
	return envelope.Seal(buf)
}

// readEntry checks an on-disk entry's frame and codec version and reads
// its record, the graph left encoded.
func readEntry(data []byte) (Record, error) {
	body, err := envelope.Open(data, magic)
	if err != nil {
		return Record{}, fmt.Errorf("fpcache: %w", err)
	}
	r := envelope.NewReader(body)
	if ver := r.Uvarint(); r.Err() == nil && ver != codecVersion {
		return Record{}, fmt.Errorf("fpcache: unsupported codec version %d", ver)
	}
	rec := ReadRecord(r)
	if err := r.Close(); err != nil {
		return Record{}, fmt.Errorf("fpcache: entry: %w", err)
	}
	return rec, nil
}

// decodeEntry parses and validates an on-disk entry: its record and the
// record's graph, decoded.
func decodeEntry(data []byte) (Record, *Entry, error) {
	rec, err := readEntry(data)
	if err != nil {
		return Record{}, nil, err
	}
	g, tail, err := propgraph.DecodeBinary(rec.Graph)
	if err != nil {
		return Record{}, nil, err
	}
	if len(tail) != 0 {
		return Record{}, nil, fmt.Errorf("fpcache: %d trailing bytes after graph", len(tail))
	}
	return rec, &Entry{Graph: g, ParseError: rec.ParseError, Cost: rec.Cost, Size: int64(len(data))}, nil
}

// Get looks up the entry for (name, content). Any failure — absent
// entry, unreadable file, corruption, version skew, an entry recording
// another file — is reported as a miss; Get never errors.
func (c *Cache) Get(name, content string) (*Entry, bool) {
	source := sha256.Sum256([]byte(content))
	data, err := os.ReadFile(c.entryPath(key(name, source)))
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	rec, e, err := decodeEntry(data)
	if err != nil || rec.Name != name || rec.Source != source {
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
	return c.PutRecord(&Record{
		Name:       name,
		Source:     sha256.Sum256([]byte(content)),
		ParseError: e.ParseError,
		Cost:       e.Cost,
		Graph:      e.Graph.AppendBinary(nil),
	})
}

// PutRecord stores a file's record under the key its name and source hash
// derive, atomically, and returns the bytes written. The record's graph
// bytes are written as they are: a shard coordinator ingests the sections
// a worker shipped without decoding and re-encoding them. A record whose
// graph does not decode costs nothing but a wasted slot — Get validates
// the entry on read and treats a bad one as a miss.
func (c *Cache) PutRecord(rec *Record) (int64, error) {
	data := appendEntry(rec)
	if err := envelope.WriteFile(c.entryPath(key(rec.Name, rec.Source)), data); err != nil {
		return 0, fmt.Errorf("fpcache: %w", err)
	}
	c.bytesWritten.Add(int64(len(data)))
	return int64(len(data)), nil
}

// Clear removes every cache entry (and any abandoned temp file) from
// the directory, leaving the directory itself and its version marker in
// place.
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
