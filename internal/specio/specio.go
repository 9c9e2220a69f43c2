// Package specio is the persistent store format for learned taint
// specifications: a versioned JSON codec that decouples learning
// (seldon learn -o) from checking (seldond, seldon check).
//
// The format carries a schema version, provenance metadata (corpus
// fingerprint, file/event counts, generator), the three role lists with
// sink argument restrictions, and the blacklist. Two guarantees hold:
//
//   - Round trip: Decode(Encode(s)) reproduces s exactly — entry order,
//     sink argument restrictions, and blacklist patterns included
//     (checked by Equal).
//   - Byte stability: encoding never iterates a Go map, so consecutive
//     saves of the same specification are byte-identical — safe to diff,
//     content-address, and cache.
package specio

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"seldon/internal/propgraph"
	"seldon/internal/spec"
)

// SchemaVersion is the current store schema. Decode rejects files whose
// schema is newer (a reader can't safely interpret fields it doesn't
// know) and files from before versioning existed.
const SchemaVersion = 1

// Meta is the provenance block of a spec store.
type Meta struct {
	// CorpusFingerprint identifies the corpus the specification was
	// learned from (see Fingerprint); empty for hand-written stores.
	CorpusFingerprint string `json:"corpus_fingerprint,omitempty"`
	// CorpusFiles and Events record the corpus size and the number of
	// propagation-graph events learning saw.
	CorpusFiles int `json:"corpus_files,omitempty"`
	Events      int `json:"events,omitempty"`
	// SeedEntries and LearnedEntries split the store's role entries into
	// the hand-labeled seed and the inferred remainder.
	SeedEntries    int `json:"seed_entries,omitempty"`
	LearnedEntries int `json:"learned_entries,omitempty"`
	// Generator names the producing tool, e.g. "seldon".
	Generator string `json:"generator,omitempty"`
}

// sinkEntry is a sink with its optional dangerous-argument restriction.
type sinkEntry struct {
	Rep  string `json:"rep"`
	Args []int  `json:"args,omitempty"`
}

// store is the on-disk shape.
type store struct {
	Schema     int         `json:"schema"`
	Meta       Meta        `json:"meta"`
	Sources    []string    `json:"sources"`
	Sanitizers []string    `json:"sanitizers"`
	Sinks      []sinkEntry `json:"sinks"`
	Blacklist  []string    `json:"blacklist"`
}

// Encode writes s as versioned, indented JSON. Entry order is preserved
// from the Spec (learning emits a deterministic order), and no map is
// iterated, so output bytes are a pure function of the specification.
func Encode(w io.Writer, s *spec.Spec, meta Meta) error {
	st := store{
		Schema:     SchemaVersion,
		Meta:       meta,
		Sources:    append([]string{}, s.Sources...),
		Sanitizers: append([]string{}, s.Sanitizers...),
		Sinks:      make([]sinkEntry, 0, len(s.Sinks)),
		Blacklist:  make([]string, 0, len(s.Blacklist)),
	}
	for _, rep := range s.Sinks {
		st.Sinks = append(st.Sinks, sinkEntry{Rep: rep, Args: s.SinkArgsOf(rep)})
	}
	for _, p := range s.Blacklist {
		st.Blacklist = append(st.Blacklist, p.String())
	}
	data, err := json.MarshalIndent(&st, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// Decode reads a store produced by Encode, validating the schema
// version and rejecting unknown fields (corruption shows up as an error,
// not as silently dropped entries).
func Decode(r io.Reader) (*spec.Spec, Meta, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var st store
	if err := dec.Decode(&st); err != nil {
		return nil, Meta{}, fmt.Errorf("specio: decode: %w", err)
	}
	if st.Schema == 0 {
		return nil, Meta{}, fmt.Errorf("specio: missing schema version (not a spec store?)")
	}
	if st.Schema > SchemaVersion {
		return nil, Meta{}, fmt.Errorf("specio: schema %d is newer than supported %d", st.Schema, SchemaVersion)
	}
	s := spec.New()
	for _, rep := range st.Sources {
		s.Add(propgraph.Source, rep)
	}
	for _, rep := range st.Sanitizers {
		s.Add(propgraph.Sanitizer, rep)
	}
	for _, e := range st.Sinks {
		s.Add(propgraph.Sink, e.Rep)
		if len(e.Args) > 0 {
			s.RestrictSinkArgs(e.Rep, e.Args...)
		}
	}
	for _, p := range st.Blacklist {
		s.AddBlacklist(p)
	}
	return s, st.Meta, nil
}

// Save writes the store to path (0644).
func Save(path string, s *spec.Spec, meta Meta) error {
	var buf bytes.Buffer
	if err := Encode(&buf, s, meta); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// Load reads a store from path.
func Load(path string) (*spec.Spec, Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Meta{}, err
	}
	defer f.Close()
	return Decode(f)
}

// FingerprintStore returns the stable identity of a specification
// store: sha256 over its canonical encoding. Encode is byte-stable, so
// two stores with the same entries, metadata, and order always share a
// fingerprint — the serving layer uses it to tell whether a reload
// actually changed anything.
func FingerprintStore(s *spec.Spec, meta Meta) (string, error) {
	var buf bytes.Buffer
	if err := Encode(&buf, s, meta); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return fmt.Sprintf("sha256:%x", sum[:]), nil
}

// FileHash returns the sha256 of one file's content, hex-encoded — the
// per-file leaf the corpus fingerprint is built from. Shard manifests
// carry these hashes so a distributed coordinator can reproduce the
// corpus fingerprint without ever seeing the file contents.
func FileHash(content string) string {
	sum := sha256.Sum256([]byte(content))
	return fmt.Sprintf("%x", sum[:])
}

// Fingerprint hashes a corpus (name → source) into a stable identifier.
// It is Merkle-shaped: sha256 over length-prefixed (name, FileHash)
// pairs in sorted name order — a pure function of the corpus contents,
// independent of map iteration order, and composable from per-file
// hashes alone (see FingerprintHashes), which is what lets a shard
// coordinator stamp the same fingerprint a single-process run would.
func Fingerprint(files map[string]string) string {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	hashes := make([]string, len(names))
	for i, n := range names {
		hashes[i] = FileHash(files[n])
	}
	return FingerprintHashes(names, hashes)
}

// FingerprintHashes computes the corpus fingerprint from (name, hash)
// pairs, where hashes[i] = FileHash of names[i]'s content and names are
// in sorted order. Fingerprint(files) == FingerprintHashes over the
// same corpus — the equality the distributed determinism oracle rests
// on.
func FingerprintHashes(names, hashes []string) string {
	h := sha256.New()
	var lenBuf [8]byte
	writePart := func(s string) {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(s)))
		h.Write(lenBuf[:])
		h.Write([]byte(s))
	}
	for i, n := range names {
		writePart(n)
		writePart(hashes[i])
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil))
}

// Equal reports whether two specifications are identical: same role
// entries in the same order, same sink argument restrictions, and the
// same blacklist patterns. It is the round-trip oracle for this package.
func Equal(a, b *spec.Spec) bool {
	if !stringsEqual(a.Sources, b.Sources) ||
		!stringsEqual(a.Sanitizers, b.Sanitizers) ||
		!stringsEqual(a.Sinks, b.Sinks) {
		return false
	}
	for _, rep := range a.Sinks {
		if !intsEqual(a.SinkArgsOf(rep), b.SinkArgsOf(rep)) {
			return false
		}
	}
	if len(a.Blacklist) != len(b.Blacklist) {
		return false
	}
	for i := range a.Blacklist {
		if a.Blacklist[i].String() != b.Blacklist[i].String() {
			return false
		}
	}
	return true
}

func stringsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
