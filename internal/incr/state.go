package incr

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"seldon/internal/constraints"
	"seldon/internal/core"
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

// Save writes the session state to path atomically (temp file + rename
// in path's directory).
func (s *Session) Save(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()

	var b bytes.Buffer
	b.WriteString(stateMagic)
	wU64(&b, stateVersion)
	wStr(&b, fpcache.AnalyzerVersion)

	k := s.knobs()
	wF64(&b, k.C)
	wF64(&b, k.Lambda)
	wF64(&b, k.Threshold)
	wF64(&b, k.Decay)
	wU64(&b, uint64(k.Cutoff))
	wU64(&b, uint64(k.MaxComponent))

	var seedBuf bytes.Buffer
	if err := specio.Encode(&seedBuf, s.seed, specio.Meta{Generator: "incr-session"}); err != nil {
		return fmt.Errorf("incr: encode seed: %w", err)
	}
	wBytes(&b, seedBuf.Bytes())

	names := s.sortedNames()
	wU64(&b, uint64(len(names)))
	for _, n := range names {
		fs := s.files[n]
		wStr(&b, n)
		if fs.hasContent {
			b.WriteByte(1)
		} else {
			b.WriteByte(0)
		}
		b.Write(fs.contentHash[:])
		wBytes(&b, fs.enc)
	}

	wU64(&b, uint64(len(s.prev)))
	for _, pk := range sortedKeys(s.prev) {
		wStr(&b, pk.Rep)
		wU64(&b, uint64(pk.Role))
		wF64(&b, s.prev[pk])
	}

	wU64(&b, uint64(len(s.pins)))
	for _, pk := range sortedKeys(s.pins) {
		wStr(&b, pk.Rep)
		wU64(&b, uint64(pk.Role))
		wF64(&b, s.pins[pk])
	}

	wU64(&b, uint64(s.coldEpochs))

	sum := sha256.Sum256(b.Bytes())
	b.Write(sum[:])

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".state-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Load restores a session from path. seed and cfg are the *current*
// run's seed and configuration; Load fails when the stored seed or
// learning knobs disagree with them (the resumed state would answer a
// different problem), when the analyzer version moved (stored graphs
// may no longer match what the front-end produces), or when the file is
// corrupt. On any error the caller should start a cold session.
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
	if len(data) < len(stateMagic)+sha256.Size {
		return nil, errors.New("incr: state file truncated")
	}
	payload, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], trailer) {
		return nil, errors.New("incr: state checksum mismatch")
	}

	r := &stateReader{data: payload}
	if string(r.take(len(stateMagic))) != stateMagic {
		return nil, errors.New("incr: bad state magic")
	}
	if v := r.u64(); v != stateVersion {
		return nil, fmt.Errorf("incr: state version %d, want %d", v, stateVersion)
	}
	if av := r.str(); av != fpcache.AnalyzerVersion {
		return nil, fmt.Errorf("incr: analyzer version %q, want %q", av, fpcache.AnalyzerVersion)
	}

	stored := sessionKnobs{
		C:            r.f64(),
		Lambda:       r.f64(),
		Threshold:    r.f64(),
		Decay:        r.f64(),
		Cutoff:       int(r.u64()),
		MaxComponent: int(r.u64()),
	}
	storedSeed, _, err := specio.Decode(bytes.NewReader(r.bytes()))
	if err != nil {
		return nil, fmt.Errorf("incr: decode stored seed: %w", err)
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

	nFiles := int(r.u64())
	for i := 0; i < nFiles && r.err == nil; i++ {
		name := r.str()
		hasContent := false
		if hb := r.take(1); len(hb) == 1 {
			hasContent = hb[0] != 0
		}
		var ch [32]byte
		copy(ch[:], r.take(32))
		enc := r.bytes()
		if r.err != nil {
			break
		}
		g, rest, derr := propgraph.DecodeBinary(enc)
		if derr != nil {
			return nil, fmt.Errorf("incr: decode graph %q: %w", name, derr)
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("incr: trailing bytes after graph %q", name)
		}
		// Keep the stored encoding verbatim — the span hash and the
		// identical-splice check key off these exact bytes.
		fs := newFileState(append([]byte(nil), enc...), g)
		fs.contentHash, fs.hasContent = ch, hasContent
		s.files[name] = fs
	}

	nSol := int(r.u64())
	if r.err == nil && nSol > 0 {
		s.prev = make(map[PinKey]float64, nSol)
		for i := 0; i < nSol && r.err == nil; i++ {
			rep := r.str()
			role := propgraph.Role(r.u64())
			s.prev[PinKey{Rep: rep, Role: role}] = r.f64()
		}
	}

	nPins := int(r.u64())
	for i := 0; i < nPins && r.err == nil; i++ {
		rep := r.str()
		role := propgraph.Role(r.u64())
		s.pins[PinKey{Rep: rep, Role: role}] = r.f64()
	}

	s.coldEpochs = int(r.u64())
	if r.err != nil {
		return nil, r.err
	}
	if len(r.data) != r.at {
		return nil, errors.New("incr: trailing bytes in state file")
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
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Rep != keys[j].Rep {
			return keys[i].Rep < keys[j].Rep
		}
		return keys[i].Role < keys[j].Role
	})
	return keys
}

func wU64(b *bytes.Buffer, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	b.Write(buf[:])
}

func wF64(b *bytes.Buffer, v float64) {
	wU64(b, math.Float64bits(v))
}

func wBytes(b *bytes.Buffer, p []byte) {
	wU64(b, uint64(len(p)))
	b.Write(p)
}

func wStr(b *bytes.Buffer, s string) {
	wU64(b, uint64(len(s)))
	b.WriteString(s)
}

// stateReader is a cursor over the state payload; the first decode
// failure sticks in err and every later read returns zero values.
type stateReader struct {
	data []byte
	at   int
	err  error
}

func (r *stateReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.at+n > len(r.data) {
		r.err = errors.New("incr: state file truncated")
		return nil
	}
	p := r.data[r.at : r.at+n]
	r.at += n
	return p
}

func (r *stateReader) u64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (r *stateReader) f64() float64 {
	return math.Float64frombits(r.u64())
}

func (r *stateReader) bytes() []byte {
	n := r.u64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)-r.at) {
		r.err = errors.New("incr: state file truncated")
		return nil
	}
	return r.take(int(n))
}

func (r *stateReader) str() string {
	return string(r.bytes())
}
