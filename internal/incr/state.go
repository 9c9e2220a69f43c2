package incr

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"seldon/internal/core"
	"seldon/internal/envelope"
	"seldon/internal/fpcache"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
	"seldon/internal/specio"
)

// Session persistence. A session directory holds one self-delimiting
// binary file, state.bin, which carries everything a later process needs
// to resume incrementally: the seed store, the learning knobs, every
// corpus file's record (an fpcache record list), the previous solution
// keyed by (rep, role) and the feedback pins. A sha256 trailer
// self-checks the payload; any corruption, version skew, or
// analyzer-version skew surfaces as an error so the caller falls back to
// a cold session. The standing state — union, flow cache, row table — is
// derived data and is not persisted: the first Relearn after LoadDir
// builds it from the files.

const (
	stateMagic = "SINC"
	// stateVersion 5: the files are an fpcache record list, whose records
	// keep no analysis cost.
	stateVersion = 5
	// StateFile is the session state file name inside a session directory.
	StateFile = "state.bin"
)

// sessionKnobs are the learning parameters a persisted session is bound
// to. Resuming under different knobs would silently re-learn a
// different optimization problem, so LoadDir rejects a mismatch.
type sessionKnobs struct {
	C         float64
	Lambda    float64
	Threshold float64
	Cutoff    int
}

// SaveDir persists the session into dir (created if missing): it writes
// dir/state.bin atomically and removes the flowcache.bin an older binary
// left there, which nothing reads.
func (s *Session) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(dir, "flowcache.bin")); err != nil && !os.IsNotExist(err) {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	b := append(make([]byte, 0, 4096), stateMagic...)
	b = envelope.AppendU64(b, stateVersion)
	b = envelope.AppendBytes64(b, fpcache.AnalyzerVersion)

	k := s.knobs()
	b = envelope.AppendF64(b, k.C)
	b = envelope.AppendF64(b, k.Lambda)
	b = envelope.AppendF64(b, k.Threshold)
	b = envelope.AppendU64(b, uint64(k.Cutoff))

	seedBytes, err := encodeSeed(s.seed)
	if err != nil {
		return err
	}
	b = envelope.AppendBytes64(b, seedBytes)

	b = fpcache.AppendRecords(b, len(s.files), func(i int) *fpcache.Record { return &s.files[i].Record })

	for _, m := range []map[PinKey]float64{s.prev, s.pins} {
		b = envelope.AppendU64(b, uint64(len(m)))
		for _, pk := range sortedKeys(m) {
			b = envelope.AppendBytes64(b, pk.Rep)
			b = envelope.AppendU64(b, uint64(pk.Role))
			b = envelope.AppendF64(b, m[pk])
		}
	}
	return envelope.WriteFile(filepath.Join(dir, StateFile), envelope.Seal(b))
}

// encodeSeed is the seed store as a state file carries it.
func encodeSeed(seed *spec.Spec) ([]byte, error) {
	var buf bytes.Buffer
	if err := specio.Encode(&buf, seed, specio.Meta{Generator: "incr-session"}); err != nil {
		return nil, fmt.Errorf("incr: encode seed: %w", err)
	}
	return buf.Bytes(), nil
}

// errNotCanonical is a state file that passes its checksum but that SaveDir
// cannot have written: no two files load as the same session.
var errNotCanonical = errors.New("incr: state file is not one SaveDir writes")

// LoadDir restores the session SaveDir persisted in dir, from
// dir/state.bin; any other file there is ignored. seed and cfg are the
// *current* run's seed and configuration; LoadDir fails when the stored
// seed or learning knobs disagree with them (the resumed state would
// answer a different problem), when the analyzer version moved (stored
// graphs may no longer match what the front-end produces), or when the
// file is corrupt or not in the one form SaveDir writes (file names and
// score keys strictly ascending, the seed in SaveDir's encoding).
// On any error the caller should start a cold session.
//
// A nil seed selects adopt mode: the session resumes under the seed and
// learning knobs recorded in the state file (cfg supplies everything
// else — workers, metrics, log). This is how a server with no learning
// configuration of its own (seldond -session-dir) picks a session up.
func LoadDir(dir string, seed *spec.Spec, cfg core.Config) (*Session, error) {
	data, err := os.ReadFile(filepath.Join(dir, StateFile))
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
		C:         r.F64(),
		Lambda:    r.F64(),
		Threshold: r.F64(),
		Cutoff:    int(r.U64()),
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
		cfg.Threshold = stored.Threshold
	} else if !specio.Equal(storedSeed, seed) {
		return nil, errors.New("incr: stored seed differs from session seed")
	}
	s := NewSession(seed, cfg)
	if want := s.knobs(); stored != want {
		return nil, fmt.Errorf("incr: state knobs %+v, session wants %+v", stored, want)
	}

	recs, graphs, err := fpcache.ReadRecords(r)
	if err != nil {
		return nil, fmt.Errorf("incr: state file: files: %w", err)
	}
	for i, rec := range recs {
		// Keep the stored encoding verbatim — the span hash and the
		// identical-splice check key off these exact bytes.
		rec.Graph = bytes.Clone(rec.Graph)
		s.put(newFileState(rec, graphs[i])) // in name order: an append
	}
	// A solution or pin is a name length, a role and a value.
	const minScore = 8 + 8 + 8
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
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("incr: state file: %w", err)
	}
	s.publishPins()
	return s, nil
}

func sortedKeys(m map[PinKey]float64) []PinKey {
	keys := make([]PinKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	return keys
}

// keyLess is the order SaveDir writes score and pin keys in, and the only
// one LoadDir takes them in.
func keyLess(a, b PinKey) bool {
	if a.Rep != b.Rep {
		return a.Rep < b.Rep
	}
	return a.Role < b.Role
}
