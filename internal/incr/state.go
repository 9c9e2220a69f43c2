package incr

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"seldon/internal/constraints"
	"seldon/internal/core"
	"seldon/internal/envelope"
	"seldon/internal/fpcache"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
	"seldon/internal/specio"
)

// Session persistence. One self-delimiting binary file ("state.bin" in
// the session directory) carries everything a later process needs to
// resume incrementally: the seed store, the learning knobs, every
// corpus file's graph (binary-encoded) and source content hash, the
// previous solution keyed by (rep, role), the feedback pins, and the
// cold-solve epoch baseline. A sha256 trailer self-checks the payload;
// any corruption, version skew, or analyzer-version skew surfaces as an
// error so the caller falls back to a cold session.
//
// The flow-constraint cache is persisted beside the state as its own
// checksummed file (constraints.FlowCache Save/Load), so a resumed
// session's first Relearn reuses the flow blocks of unchanged files
// instead of paying one full flow pass. It is kept out of state.bin
// because its failure mode is different: a missing, stale, or corrupt
// flow cache is a silent empty cache (the blocks are fingerprint-gated
// derived data), never the cold-session fallback a state.bin problem
// forces.

const (
	stateMagic   = "SINC"
	stateVersion = 1
	// StateFile is the session state file name inside a session directory.
	StateFile = "state.bin"
	// FlowCacheFile is the persisted flow-constraint cache beside it.
	FlowCacheFile = "flowcache.bin"
)

// sessionKnobs are the learning parameters a persisted session is bound
// to. Resuming under different knobs would silently re-learn a
// different optimization problem, so Load rejects a mismatch.
type sessionKnobs struct {
	C            float64
	Lambda       float64
	Threshold    float64
	Decay        float64
	Cutoff       int
	MaxComponent int
}

// Save writes the session state to path atomically.
func (s *Session) Save(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()

	b := append(make([]byte, 0, 4096), stateMagic...)
	b = envelope.AppendU64(b, stateVersion)
	b = envelope.AppendBytes64(b, fpcache.AnalyzerVersion)

	k := s.knobs()
	b = envelope.AppendF64(b, k.C)
	b = envelope.AppendF64(b, k.Lambda)
	b = envelope.AppendF64(b, k.Threshold)
	b = envelope.AppendF64(b, k.Decay)
	b = envelope.AppendU64(b, uint64(k.Cutoff))
	b = envelope.AppendU64(b, uint64(k.MaxComponent))

	seedBytes, err := encodeSeed(s.seed)
	if err != nil {
		return err
	}
	b = envelope.AppendBytes64(b, seedBytes)

	names := s.sortedNames()
	b = envelope.AppendU64(b, uint64(len(names)))
	for _, n := range names {
		fs := s.files[n]
		b = envelope.AppendBytes64(b, n)
		if fs.hasContent {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = append(b, fs.contentHash[:]...)
		b = envelope.AppendBytes64(b, fs.enc)
	}

	for _, m := range []map[PinKey]float64{s.prev, s.pins} {
		b = envelope.AppendU64(b, uint64(len(m)))
		for _, pk := range sortedKeys(m) {
			b = envelope.AppendBytes64(b, pk.Rep)
			b = envelope.AppendU64(b, uint64(pk.Role))
			b = envelope.AppendF64(b, m[pk])
		}
	}

	b = envelope.AppendU64(b, uint64(s.coldEpochs))
	return envelope.WriteFile(path, envelope.Seal(b))
}

// encodeSeed is the seed store as a state file carries it.
func encodeSeed(seed *spec.Spec) ([]byte, error) {
	var buf bytes.Buffer
	if err := specio.Encode(&buf, seed, specio.Meta{Generator: "incr-session"}); err != nil {
		return nil, fmt.Errorf("incr: encode seed: %w", err)
	}
	return buf.Bytes(), nil
}

// errNotCanonical is a state file that passes its checksum but that Save
// cannot have written: no two files load as the same session.
var errNotCanonical = errors.New("incr: state file is not one Save writes")

// Load restores a session from path. seed and cfg are the *current*
// run's seed and configuration; Load fails when the stored seed or
// learning knobs disagree with them (the resumed state would answer a
// different problem), when the analyzer version moved (stored graphs
// may no longer match what the front-end produces), or when the file is
// corrupt or not in the one form Save writes (file names and score keys
// strictly ascending, content flag 0 or 1, the seed in Save's encoding).
// On any error the caller should start a cold session.
//
// A nil seed selects adopt mode: the session resumes under the seed and
// learning knobs recorded in the state file (cfg supplies everything
// else — workers, metrics, log). This is how a server with no learning
// configuration of its own (seldond -session-dir) picks a session up.
func Load(path string, seed *spec.Spec, cfg core.Config) (*Session, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	body, err := envelope.Open(data, stateMagic)
	if err != nil {
		return nil, fmt.Errorf("incr: state file: %w", err)
	}
	r := envelope.NewReader(body)
	if v := r.U64(); r.Err() == nil && v != stateVersion {
		return nil, fmt.Errorf("incr: state version %d, want %d", v, stateVersion)
	}
	if av := r.String64(); r.Err() == nil && av != fpcache.AnalyzerVersion {
		return nil, fmt.Errorf("incr: analyzer version %q, want %q", av, fpcache.AnalyzerVersion)
	}

	stored := sessionKnobs{
		C:            r.F64(),
		Lambda:       r.F64(),
		Threshold:    r.F64(),
		Decay:        r.F64(),
		Cutoff:       int(r.U64()),
		MaxComponent: int(r.U64()),
	}
	seedBytes := r.Bytes64()
	storedSeed, _, err := specio.Decode(bytes.NewReader(seedBytes))
	if err != nil {
		return nil, fmt.Errorf("incr: decode stored seed: %w", err)
	}
	if canonical, err := encodeSeed(storedSeed); err != nil || !bytes.Equal(canonical, seedBytes) {
		return nil, fmt.Errorf("%w: stored seed re-encodes differently", errNotCanonical)
	}
	if seed == nil {
		seed = storedSeed
		cfg.Constraints.C = stored.C
		cfg.Constraints.Lambda = stored.Lambda
		cfg.Constraints.BackoffCutoff = stored.Cutoff
		cfg.Constraints.MaxComponent = stored.MaxComponent
		cfg.Threshold = stored.Threshold
		cfg.BackoffDecay = stored.Decay
	} else if !specio.Equal(storedSeed, seed) {
		return nil, errors.New("incr: stored seed differs from session seed")
	}
	s := NewSession(seed, cfg)
	if want := s.knobs(); stored != want {
		return nil, fmt.Errorf("incr: state knobs %+v, session wants %+v", stored, want)
	}

	// A file is a name length, a flag, a content hash and a graph length;
	// a solution or pin a name length, a role and a value.
	const minFile, minScore = 8 + 1 + 32 + 8, 8 + 8 + 8
	var names []string
	var encs [][]byte
	for n := r.Count(r.U64(), minFile); n > 0; n-- {
		name := r.String64()
		flag := r.Byte()
		var ch [32]byte
		copy(ch[:], r.Take(len(ch)))
		enc := r.Bytes64()
		if r.Err() != nil {
			break
		}
		if flag > 1 {
			return nil, fmt.Errorf("%w: file %q has content flag %d", errNotCanonical, name, flag)
		}
		if len(names) > 0 && name <= names[len(names)-1] {
			return nil, fmt.Errorf("%w: file %q follows %q", errNotCanonical, name, names[len(names)-1])
		}
		// Keep the stored encoding verbatim — the span hash and the
		// identical-splice check key off these exact bytes.
		fs := newFileState(bytes.Clone(enc), nil)
		fs.contentHash, fs.hasContent = ch, flag == 1
		s.files[name] = fs
		names, encs = append(names, name), append(encs, enc)
	}
	graphs, bad, err := propgraph.DecodeAll(encs)
	if err != nil {
		return nil, fmt.Errorf("incr: decode graph %q: %w", names[bad], err)
	}
	for i, g := range graphs {
		s.files[names[i]].graph = g
	}
	scores := func() map[PinKey]float64 {
		n := r.Count(r.U64(), minScore)
		m := make(map[PinKey]float64, n)
		var last PinKey
		for i := 0; i < n && r.Err() == nil; i++ {
			key := PinKey{Rep: r.String64(), Role: propgraph.Role(r.U64())}
			if i > 0 && !keyLess(last, key) {
				r.Fail(fmt.Errorf("%w: score of %v follows %v", errNotCanonical, key, last))
			}
			m[key], last = r.F64(), key
		}
		return m
	}
	if prev := scores(); len(prev) > 0 {
		s.prev = prev
	}
	s.pins = scores()
	s.coldEpochs = int(r.U64())
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("incr: state file: %w", err)
	}
	return s, nil
}

// LoadDir restores the session persisted in dir (via SaveDir): Load on
// dir/state.bin, plus the persisted flow-constraint cache
// (dir/flowcache.bin) when one is present and matches this session's
// analyzer version and knobs — a missing or skewed flow cache is simply
// empty, never an error.
func LoadDir(dir string, seed *spec.Spec, cfg core.Config) (*Session, error) {
	s, err := Load(filepath.Join(dir, StateFile), seed, cfg)
	if err != nil {
		return nil, err
	}
	if fc, ok := constraints.LoadFlowCache(filepath.Join(dir, FlowCacheFile), s.cfg.Constraints); ok {
		s.cache = fc
	}
	return s, nil
}

// SaveDir persists the session into dir (created if missing) as
// dir/state.bin plus dir/flowcache.bin. A failed flow-cache write is
// reported but the state itself is already safe — the next LoadDir just
// starts with an empty flow cache.
func (s *Session) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := s.Save(filepath.Join(dir, StateFile)); err != nil {
		return err
	}
	return s.cache.Save(filepath.Join(dir, FlowCacheFile), s.cfg.Constraints)
}

func sortedKeys(m map[PinKey]float64) []PinKey {
	keys := make([]PinKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	return keys
}

// keyLess is the order Save writes score and pin keys in, and the only
// one Load takes them in.
func keyLess(a, b PinKey) bool {
	if a.Rep != b.Rep {
		return a.Rep < b.Rep
	}
	return a.Role < b.Role
}
