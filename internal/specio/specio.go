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
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"

	"seldon/internal/envelope"
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

// The ways Decode refuses a store. Every error it returns wraps one.
var (
	// ErrMalformed: not JSON, an unknown field, or a value of the wrong type.
	ErrMalformed = errors.New("specio: malformed store")
	// ErrSchema: a schema version missing, below 1, or newer than
	// SchemaVersion.
	ErrSchema = errors.New("specio: unsupported schema")
	// ErrDuplicate: a representation listed twice under one role.
	ErrDuplicate = errors.New("specio: duplicate entry")
	// ErrTrailing: anything but whitespace after the store.
	ErrTrailing = envelope.ErrTrailing
)

// Decode reads a store produced by Encode. It refuses what Encode cannot
// write — an unknown field, a schema outside 1..SchemaVersion, an entry
// listed twice, bytes after the store — so corruption shows up as an
// error, not as silently dropped entries. Whitespace and key order are
// free.
func Decode(r io.Reader) (*spec.Spec, Meta, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var st store
	if err := dec.Decode(&st); err != nil {
		return nil, Meta{}, fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, Meta{}, ErrTrailing
	}
	if st.Schema < 1 || st.Schema > SchemaVersion {
		return nil, Meta{}, fmt.Errorf("%w: %d (this reader knows 1..%d)", ErrSchema, st.Schema, SchemaVersion)
	}
	s := spec.New()
	var dup error
	add := func(role propgraph.Role, rep string) {
		if dup == nil && s.RolesOf(rep).Has(role) {
			dup = fmt.Errorf("%w: %s %q", ErrDuplicate, role, rep)
		}
		s.Add(role, rep)
	}
	for _, rep := range st.Sources {
		add(propgraph.Source, rep)
	}
	for _, rep := range st.Sanitizers {
		add(propgraph.Sanitizer, rep)
	}
	for _, e := range st.Sinks {
		add(propgraph.Sink, e.Rep)
		if len(e.Args) > 0 {
			s.RestrictSinkArgs(e.Rep, e.Args...)
		}
	}
	if dup != nil {
		return nil, Meta{}, dup
	}
	for _, p := range st.Blacklist {
		s.AddBlacklist(p)
	}
	return s, st.Meta, nil
}

// Save writes the store to path through a temp file renamed into place,
// so a server reloading path reads the old store or the new one, never
// part of one. The store is readable by all (0644), as seldond may run
// as another user than the learn that wrote it.
func Save(path string, s *spec.Spec, meta Meta) error {
	var buf bytes.Buffer
	if err := Encode(&buf, s, meta); err != nil {
		return err
	}
	if err := envelope.WriteFile(path, buf.Bytes()); err != nil {
		return err
	}
	return os.Chmod(path, 0o644)
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

// Fingerprint hashes a corpus (name → source) into a stable identifier.
// It is Merkle-shaped: sha256 over length-prefixed (name, hex sha256 of
// the content) pairs in sorted name order — a pure function of the
// corpus contents, independent of map iteration order, and composable
// from per-file hashes alone (see FingerprintHashes), which is what lets
// a shard coordinator stamp the same fingerprint a single-process run
// would.
func Fingerprint(files map[string]string) string {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	hashes := make([]string, len(names))
	for i, n := range names {
		hashes[i] = fmt.Sprintf("%x", sha256.Sum256([]byte(files[n])))
	}
	return FingerprintHashes(names, hashes)
}

// FingerprintHashes computes the corpus fingerprint from (name, hash)
// pairs, where hashes[i] is the hex sha256 of names[i]'s content and
// names are in sorted order. Fingerprint(files) == FingerprintHashes over
// the same corpus — the equality the distributed determinism oracle
// rests on.
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
	if !slices.Equal(a.Sources, b.Sources) ||
		!slices.Equal(a.Sanitizers, b.Sanitizers) ||
		!slices.Equal(a.Sinks, b.Sinks) {
		return false
	}
	for _, rep := range a.Sinks {
		if !slices.Equal(a.SinkArgsOf(rep), b.SinkArgsOf(rep)) {
			return false
		}
	}
	return slices.EqualFunc(a.Blacklist, b.Blacklist, func(p, q spec.Pattern) bool { return p.String() == q.String() })
}
