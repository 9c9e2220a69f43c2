// Package incr is the incremental-learning subsystem: a persistent
// session that owns the corpus as a set of per-file propagation graphs
// and re-learns specifications in ~O(changed files) instead of from
// scratch (ROADMAP item 2).
//
// A Session supports two delta operations on the corpus — Retract(file)
// and Splice(file, graph) — plus operator feedback pins on (rep, role)
// variables. Relearn then:
//
//   - rebuilds the disjoint union from the per-file graphs in sorted
//     name order (cheap: an arena bulk-copy, byte-identical to what a
//     from-scratch run produces),
//   - runs the delta-aware constraint build (constraints.BuildIncremental),
//     which reuses the cached flow-constraint block of every file whose
//     support set is unchanged,
//   - warm-starts projected Adam from the previous solution, translated
//     across variable renumbering by (rep, role); new variables start
//     cold and pinned variables are re-pinned on top,
//   - applies feedback pins as hard LP constraints (lp.Problem.Pin).
//
// Determinism contract: the incrementally built constraint system is
// byte-identical to constraints.Build on the union of the current file
// set (pinned by the equivalence-oracle tests), and the warm-started
// solve converges to the same specification store as a cold run under
// the default tolerance (golden tests).
//
// Sessions persist: Save writes the full state (per-file graphs, seed,
// knobs, previous solution, pins) to one self-checking binary file and
// Load restores it, so corpus evolution across CLI runs — and feedback
// served by a long-running seldond — re-learns incrementally instead of
// cold.
package incr

import (
	"bytes"
	"crypto/sha256"
	"sort"
	"sync"
	"time"

	"seldon/internal/constraints"
	"seldon/internal/core"
	"seldon/internal/obs"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
)

// PinKey identifies one feedback-pinned variable.
type PinKey struct {
	Rep  string
	Role propgraph.Role
}

// warmPatience is the plateau window (epochs without a best-objective
// improvement) applied to warm-started re-solves. Wide enough that a
// genuinely-moved optimum is still chased across shallow plateaus,
// narrow enough that a near-optimal warm start stops in a fraction of
// the full epoch budget.
const warmPatience = 25

// fileState is one corpus file inside the session.
type fileState struct {
	// contentHash is the sha256 of the file's source text, used by the
	// CLI to diff an on-disk corpus against the session without
	// re-analyzing unchanged files. Zero when the graph was spliced
	// directly (no source in hand).
	contentHash [32]byte
	hasContent  bool
	// enc is the graph's binary encoding (propgraph v2); encHash, its
	// sha256, keys the flow-constraint cache spans.
	enc     []byte
	encHash [32]byte
	graph   *propgraph.Graph
}

// newFileState wraps a graph and its encoding, hashing the encoding once
// for every Relearn the file will be part of.
func newFileState(enc []byte, g *propgraph.Graph) *fileState {
	return &fileState{enc: enc, encHash: sha256.Sum256(enc), graph: g}
}

// Session owns the persistent incremental-learning state. All methods
// are safe for concurrent use; Relearn serializes.
type Session struct {
	mu   sync.Mutex
	seed *spec.Spec
	cfg  core.Config

	files map[string]*fileState
	cache *constraints.FlowCache
	pins  map[PinKey]float64

	// prev is the last solution keyed by (rep, role); coldEpochs the
	// epoch count of the session's last cold (non-warm) solve, the
	// baseline solver.warm_epochs_saved is measured against.
	prev       map[PinKey]float64
	coldEpochs int

	result  *core.Result
	changed int // files spliced/retracted since the last Relearn
}

// NewSession starts an empty session learning against seed with the
// given pipeline configuration (solver knobs, workers, metrics, log).
func NewSession(seed *spec.Spec, cfg core.Config) *Session {
	return &Session{
		seed:  seed,
		cfg:   cfg,
		files: make(map[string]*fileState),
		cache: constraints.NewFlowCache(),
		pins:  make(map[PinKey]float64),
	}
}

// Seed returns the session's seed specification.
func (s *Session) Seed() *spec.Spec {
	return s.seed
}

// Len returns the number of files in the session.
func (s *Session) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.files)
}

// Files returns the session's file names in sorted order — the union
// order Relearn uses.
func (s *Session) Files() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sortedNames()
}

func (s *Session) sortedNames() []string {
	names := make([]string, 0, len(s.files))
	for n := range s.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// FileHash returns the sha256 of the named file's source text and
// whether the session holds that file with a recorded content hash.
func (s *Session) FileHash(name string) ([32]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fs := s.files[name]
	if fs == nil || !fs.hasContent {
		return [32]byte{}, false
	}
	return fs.contentHash, true
}

// EncodedGraph returns the binary encoding of the named file's graph,
// or nil when the file is not in the session. The returned slice must
// not be modified.
func (s *Session) EncodedGraph(name string) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fs := s.files[name]; fs != nil {
		return fs.enc
	}
	return nil
}

// Retract removes a file from the session's corpus, reporting whether
// it was present. The next Relearn re-learns without it.
func (s *Session) Retract(name string) bool {
	t0 := time.Now()
	s.mu.Lock()
	_, ok := s.files[name]
	if ok {
		delete(s.files, name)
		s.changed++
	}
	s.mu.Unlock()
	s.cfg.Metrics.ObserveDuration(obs.StageIncrRetract, time.Since(t0))
	return ok
}

// Splice inserts or replaces a file's propagation graph. The graph is
// owned by the session afterwards and must not be mutated by the
// caller. A splice whose encoded bytes equal the resident file's is a
// no-op (the file is not marked changed).
func (s *Session) Splice(name string, g *propgraph.Graph) {
	t0 := time.Now()
	enc := g.AppendBinary(nil)
	s.mu.Lock()
	if old := s.files[name]; old != nil && bytes.Equal(old.enc, enc) {
		s.mu.Unlock()
		s.cfg.Metrics.ObserveDuration(obs.StageIncrSplice, time.Since(t0))
		return
	}
	s.files[name] = newFileState(enc, g)
	s.changed++
	s.mu.Unlock()
	s.cfg.Metrics.ObserveDuration(obs.StageIncrSplice, time.Since(t0))
}

// SpliceSource analyzes one source file through the standard front-end
// and splices the resulting graph, recording the content hash so a
// later corpus diff can skip it without re-analysis. An unchanged
// content hash short-circuits before parsing.
func (s *Session) SpliceSource(name, source string) {
	h := sha256.Sum256([]byte(source))
	s.mu.Lock()
	if old := s.files[name]; old != nil && old.hasContent && old.contentHash == h {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()

	t0 := time.Now()
	fe := core.AnalyzeFiles(map[string]string{name: source}, core.Config{
		Workers: 1, Cache: s.cfg.Cache, Metrics: s.cfg.Metrics, Log: s.cfg.Log,
	})
	g := fe.Graphs[0]
	fs := newFileState(g.AppendBinary(nil), g)
	fs.contentHash, fs.hasContent = h, true
	s.mu.Lock()
	if old := s.files[name]; old == nil || !bytes.Equal(old.enc, fs.enc) {
		s.changed++
	}
	s.files[name] = fs
	s.mu.Unlock()
	s.cfg.Metrics.ObserveDuration(obs.StageIncrSplice, time.Since(t0))
}

// Pin records a feedback verdict: the (rep, role) variable is pinned to
// val (1 accepts the role, 0 rejects it) as a hard constraint in every
// later solve. Re-pinning overwrites.
func (s *Session) Pin(rep string, role propgraph.Role, val float64) {
	s.mu.Lock()
	s.pins[PinKey{Rep: rep, Role: role}] = val
	s.mu.Unlock()
}

// Unpin removes a feedback pin, reporting whether it existed.
func (s *Session) Unpin(rep string, role propgraph.Role) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.pins[PinKey{Rep: rep, Role: role}]; !ok {
		return false
	}
	delete(s.pins, PinKey{Rep: rep, Role: role})
	return true
}

// Pins returns the number of active feedback pins.
func (s *Session) Pins() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pins)
}

// Result returns the outcome of the last Relearn, or nil.
func (s *Session) Result() *core.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.result
}

// RelearnStats reports what one Relearn call reused.
type RelearnStats struct {
	// Files is the corpus size; FilesChanged the splices/retracts since
	// the previous Relearn. Delta reports the constraint-block reuse.
	Files        int
	FilesChanged int
	Delta        constraints.DeltaStats
	// WarmStarted reports that the solve resumed from a previous
	// solution; EpochsSaved is the saving against the session's last
	// cold solve (0 when cold or when the warm solve was not faster).
	WarmStarted bool
	EpochsSaved int
}

// Relearn re-runs inference over the session's current file set and
// returns the result. The union is rebuilt from the per-file graphs
// (sorted name order — byte-identical to a from-scratch run), the
// constraint system is built delta-aware, feedback pins are applied as
// hard constraints, and the solve warm-starts from the previous
// solution when one exists.
func (s *Session) Relearn() (*core.Result, RelearnStats) {
	s.mu.Lock()
	defer s.mu.Unlock()

	var st RelearnStats
	st.Files = len(s.files)
	st.FilesChanged = s.changed

	// Union + delta-aware constraint build.
	t0 := time.Now()
	names := s.sortedNames()
	graphs := make([]*propgraph.Graph, len(names))
	spans := make([]constraints.Span, len(names))
	at := 0
	for i, n := range names {
		fs := s.files[n]
		graphs[i] = fs.graph
		spans[i] = constraints.Span{
			File: n,
			Lo:   at,
			Hi:   at + len(fs.graph.Events),
			Hash: fs.encHash,
		}
		at = spans[i].Hi
	}
	union := propgraph.Union(graphs...)
	tUnion := time.Now()
	s.cfg.Metrics.ObserveDuration(obs.StageIncrRebuildUnion, tUnion.Sub(t0))
	copts := s.cfg.Constraints
	copts.Metrics = s.cfg.Metrics
	if copts.Workers == 0 {
		copts.Workers = s.cfg.Workers
	}
	sys, delta := constraints.BuildIncremental(union, s.seed, copts, spans, s.cache)
	s.cfg.Metrics.ObserveDuration(obs.StageIncrRebuildConstraints, time.Since(tUnion))
	st.Delta = delta

	// Feedback pins become hard constraints. A pin whose representation
	// has no variable in the current system is held dormant — it
	// re-applies as soon as the corpus grows the variable.
	pinned := 0
	for k, val := range s.pins {
		if id := sys.VarID(k.Rep, k.Role); id >= 0 {
			sys.Problem.Pin(id, val)
			pinned++
		}
	}
	s.cfg.Metrics.ObserveDuration(obs.StageIncrRebuild, time.Since(t0))
	s.cfg.Metrics.Set(obs.GaugeFeedbackPinnedVars, float64(pinned))

	// Warm start: the previous solution translated through (rep, role).
	// Variables new to this system (or whose representation vanished)
	// start at zero, exactly like a cold solve would start them. Warm
	// solves also get a plateau stop — starting at (or near) the
	// previous optimum, the best objective goes flat almost immediately
	// on a lightly-mutated corpus, and the patience window is what turns
	// that flatness into saved epochs. Cold solves keep the full budget.
	t0 = time.Now()
	cfg := s.cfg
	if s.prev != nil {
		warm := make([]float64, sys.Problem.NumVars)
		for i, v := range sys.Vars {
			warm[i] = s.prev[PinKey{Rep: v.Rep, Role: v.Role}]
		}
		cfg.Solver.WarmStart = warm
		if cfg.Solver.Patience == 0 {
			cfg.Solver.Patience = warmPatience
		}
		st.WarmStarted = true
	}
	res := core.LearnPrepared(union, sys, cfg)
	s.cfg.Metrics.ObserveDuration(obs.StageIncrResolve, time.Since(t0))

	// Record the solution for the next warm start and the epoch baseline.
	sol := make(map[PinKey]float64, len(sys.Vars))
	for i, v := range sys.Vars {
		sol[PinKey{Rep: v.Rep, Role: v.Role}] = res.Solution[i]
	}
	s.prev = sol
	if st.WarmStarted {
		if saved := s.coldEpochs - res.SolverEpochs; saved > 0 {
			st.EpochsSaved = saved
		}
	} else {
		s.coldEpochs = res.SolverEpochs
	}
	s.cfg.Metrics.Set(obs.GaugeWarmEpochsSaved, float64(st.EpochsSaved))
	s.cfg.Metrics.Set(obs.GaugeIncrFiles, float64(st.Files))
	s.cfg.Metrics.Set(obs.GaugeIncrFilesChanged, float64(st.FilesChanged))
	s.cfg.Log.Log("incr.relearn", "files", st.Files, "changed", st.FilesChanged,
		"spans_reused", delta.SpansReused, "warm", st.WarmStarted,
		"epochs", res.SolverEpochs, "epochs_saved", st.EpochsSaved)

	s.result = res
	s.changed = 0
	return res, st
}

// LearnedSpec returns the merged (seed + learned) specification of the
// last Relearn, or nil before the first.
func (s *Session) LearnedSpec() *spec.Spec {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.result == nil {
		return nil
	}
	return s.result.LearnedSpec(s.seed)
}

// knobs returns the learning parameters that must match for a restored
// session to be reusable.
func (s *Session) knobs() sessionKnobs {
	c := s.cfg.Constraints.C
	if c == 0 {
		c = 0.75
	}
	lambda := s.cfg.Constraints.Lambda
	if lambda == 0 {
		lambda = 0.1
	}
	threshold := s.cfg.Threshold
	if threshold == 0 {
		threshold = 0.1
	}
	decay := s.cfg.BackoffDecay
	if decay == 0 {
		decay = 0.8
	}
	cutoff := s.cfg.Constraints.BackoffCutoff
	if cutoff == 0 {
		cutoff = 5
	}
	maxComp := s.cfg.Constraints.MaxComponent
	if maxComp == 0 {
		maxComp = 50000
	}
	return sessionKnobs{C: c, Lambda: lambda, Threshold: threshold,
		Decay: decay, Cutoff: cutoff, MaxComponent: maxComp}
}

// Score returns the last solve's score of a (rep, role) variable; ok is
// false before the first Relearn or when the variable does not exist.
func (s *Session) Score(rep string, role propgraph.Role) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.prev == nil {
		return 0, false
	}
	v, ok := s.prev[PinKey{Rep: rep, Role: role}]
	return v, ok
}
