// Package incr is the incremental-learning subsystem: a persistent
// session that owns the corpus as a set of per-file propagation graphs
// and re-learns specifications in ~O(changed files) instead of from
// scratch (ROADMAP item 2).
//
// A Session supports two delta operations on the corpus — Retract(file)
// and Splice(file, graph) — plus operator feedback pins on (rep, role)
// variables. Relearn then:
//
//   - brings the disjoint union of the per-file graphs, in sorted name
//     order, up to date: the session keeps the union of the previous
//     Relearn and splices the files that changed into it
//     (propgraph.UnionBuilder.Splice), which leaves the graph
//     byte-identical to what a from-scratch run produces and touches the
//     unchanged files only to renumber the events behind an edit,
//   - runs the delta-aware constraint build (constraints.BuildIncremental),
//     which reuses the cached flow-constraint block of every file whose
//     support set is unchanged,
//   - warm-starts projected Adam from the previous solution, translated
//     across variable renumbering by (rep, role); new variables start
//     cold and pinned variables are re-pinned on top. The solver compiles
//     into the session's standing row table (lp.RowTable), where every
//     reused flow block finds its rows by its fingerprint,
//   - applies feedback pins as hard LP constraints (lp.Problem.Pin).
//
// The session is the cache: union and row table are standing state, each
// patched by the routine that also builds it from nothing and each
// rebuilt from nothing, by that routine, when a patch cannot be exact —
// the union when an edit would renumber symbols or has left too much
// dead space, the rows when too many have gone dead. Neither is
// persisted; the first Relearn after Load builds both. In return a
// core.Result is good only until its session's next Relearn, which edits
// the graph the result points to.
//
// Determinism contract: the session's union is byte-identical to
// propgraph.Union over the current file set, the incrementally built
// constraint system to constraints.Build on it, and the solution
// bit-identical to lp.Minimize from the same warm start without a row
// table (all three pinned after every step of the edit-sequence oracle
// and the fuzz target); the warm-started solve converges to the same
// specification store as a cold run under the default tolerance (golden
// tests).
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
	"seldon/internal/lp"
	"seldon/internal/obs"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
)

// PinKey identifies one feedback-pinned variable.
type PinKey struct {
	Rep  string
	Role propgraph.Role
}

// fileState is one corpus file inside the session.
type fileState struct {
	// contentHash is the sha256 of the file's source text, by which
	// SpliceSources diffs a corpus against the session without
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

	result *core.Result

	// Standing state of Relearn, nil until the first one and never
	// persisted: the union, the spans of its inputs as the last Relearn
	// handed them to the constraint build (file name and encoding hash, in
	// union order: what the union was last brought up to date with), and
	// the solver's row table.
	union *propgraph.UnionBuilder
	spans []constraints.Span
	rows  *lp.RowTable
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
	}
	s.mu.Unlock()
	s.cfg.Metrics.ObserveDuration(obs.StageIncrRetract, time.Since(t0))
	return ok
}

// Splice inserts or replaces a file's propagation graph. The graph is
// owned by the session afterwards and must not be mutated by the
// caller. A splice whose encoded bytes equal the resident file's is a
// no-op.
func (s *Session) Splice(name string, g *propgraph.Graph) {
	t0 := time.Now()
	enc := g.AppendBinary(nil)
	s.mu.Lock()
	if old := s.files[name]; old == nil || !bytes.Equal(old.enc, enc) {
		s.files[name] = newFileState(enc, g)
	}
	s.mu.Unlock()
	s.cfg.Metrics.ObserveDuration(obs.StageIncrSplice, time.Since(t0))
}

// SpliceSources brings the session up to date with a set of source files
// (name → text): the ones whose content hash the session already holds
// are skipped before parsing, the rest go through the standard front-end
// in one call — the session's workers, cache, metrics and log — and their
// graphs are spliced with the hash recorded, so a later diff can skip
// them too. Files the session holds under other names stay.
func (s *Session) SpliceSources(files map[string]string) (spliced, unchanged int) {
	hashes := make(map[string][32]byte, len(files))
	for name, src := range files {
		hashes[name] = sha256.Sum256([]byte(src))
	}
	changed := make(map[string]string)
	s.mu.Lock()
	for name, src := range files {
		if old := s.files[name]; old == nil || !old.hasContent || old.contentHash != hashes[name] {
			changed[name] = src
		}
	}
	s.mu.Unlock()
	if len(changed) == 0 {
		return 0, len(files)
	}

	t0 := time.Now()
	fe := core.AnalyzeFiles(changed, core.Config{
		Workers: s.cfg.Workers, Cache: s.cfg.Cache, Metrics: s.cfg.Metrics, Log: s.cfg.Log,
	})
	states := make([]*fileState, len(fe.Names))
	for i, name := range fe.Names {
		fs := newFileState(fe.Graphs[i].AppendBinary(nil), fe.Graphs[i])
		fs.contentHash, fs.hasContent = hashes[name], true
		states[i] = fs
	}
	s.mu.Lock()
	for i, name := range fe.Names {
		s.files[name] = states[i]
	}
	s.mu.Unlock()
	s.cfg.Metrics.ObserveDuration(obs.StageIncrSplice, time.Since(t0))
	return len(changed), len(files) - len(changed)
}

// SpliceSource is SpliceSources of one file.
func (s *Session) SpliceSource(name, source string) {
	s.SpliceSources(map[string]string{name: source})
}

// Pin records a feedback verdict: the (rep, role) variable is pinned to
// val (1 accepts the role, 0 rejects it) as a hard constraint in every
// later solve. Re-pinning overwrites. The seed is ground truth, not
// overridable by feedback: a verdict on a role the seed assigns to rep is
// refused — nothing is recorded and Pin reports false.
func (s *Session) Pin(rep string, role propgraph.Role, val float64) bool {
	if s.seed.RolesOf(rep).Has(role) {
		return false
	}
	s.mu.Lock()
	s.pins[PinKey{Rep: rep, Role: role}] = val
	s.mu.Unlock()
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
	// Files is the corpus size; FilesChanged the number of file names
	// whose graph is not the one the previous Relearn saw under that name
	// — spliced with different content, new, or retracted (every file on
	// a session's first Relearn). Delta reports the constraint-block reuse.
	Files        int
	FilesChanged int
	Delta        constraints.DeltaStats
	// UnionRebuilt is empty when the standing union was patched with the
	// changed files, and otherwise why it was built from all of them:
	// "first" (there was none), "numbering" (the edit would have numbered
	// symbols differently) or "compaction" (too much dead space).
	UnionRebuilt string
	// RowsReused counts the constraints whose solver row came from the
	// standing row table without hashing, RowsDead the rows the table
	// carries that no constraint maps to any more.
	RowsReused int
	RowsDead   int
	// WarmStarted reports that the solve resumed from a previous
	// solution; EpochsSaved is how many epochs fewer it ran than the
	// session's last cold solve, which stopped on the same plateau rule
	// wherever its own corpus let it (0 when cold or when the warm solve
	// was not faster).
	WarmStarted bool
	EpochsSaved int
}

// syncUnion brings the standing union up to date with the current files,
// names being their sorted names and s.spans still those of the last
// Relearn, and returns the number of names whose graph changed since then
// and, when the union had to be built from nothing, why.
func (s *Session) syncUnion(names []string) (changed int, rebuilt string) {
	rebuilt = "first"
	changed = len(names)
	if s.union != nil {
		// Both lists are sorted: one merge finds what was removed, replaced
		// and inserted, as edits against the union's current inputs.
		var edits []propgraph.UnionEdit
		old, i := s.spans, 0
		for _, n := range names {
			for ; i < len(old) && old[i].File < n; i++ {
				edits = append(edits, propgraph.UnionEdit{At: i, Del: 1})
			}
			fs := s.files[n]
			switch {
			case i == len(old) || old[i].File != n:
				edits = append(edits, propgraph.UnionEdit{At: i, Ins: []*propgraph.Graph{fs.graph}})
			case old[i].Hash != fs.encHash:
				edits = append(edits, propgraph.UnionEdit{At: i, Del: 1, Ins: []*propgraph.Graph{fs.graph}})
				i++
			default:
				i++
			}
		}
		for ; i < len(old); i++ {
			edits = append(edits, propgraph.UnionEdit{At: i, Del: 1})
		}
		changed = len(edits)
		rebuilt = s.union.Splice(edits)
	}
	if rebuilt != "" {
		graphs := make([]*propgraph.Graph, len(names))
		for i, n := range names {
			graphs[i] = s.files[n].graph
		}
		s.union = propgraph.NewUnionBuilder()
		s.union.Splice([]propgraph.UnionEdit{{Ins: graphs}})
	}
	return changed, rebuilt
}

// Relearn re-runs inference over the session's current file set and
// returns the result, which is good until the next Relearn. The standing
// union is brought up to date (sorted name order — byte-identical to a
// from-scratch run), the constraint system is built delta-aware, feedback
// pins are applied as hard constraints, and the solve warm-starts from
// the previous solution when one exists.
func (s *Session) Relearn() (*core.Result, RelearnStats) {
	s.mu.Lock()
	defer s.mu.Unlock()

	var st RelearnStats
	st.Files = len(s.files)
	s.result = nil // it is about to lose its graph

	// Union + delta-aware constraint build.
	t0 := time.Now()
	names := s.sortedNames()
	st.FilesChanged, st.UnionRebuilt = s.syncUnion(names)
	union := s.union.Graph()
	spans := s.spans[:0]
	at := 0
	for _, n := range names {
		fs := s.files[n]
		spans = append(spans, constraints.Span{File: n, Lo: at, Hi: at + len(fs.graph.Events), Hash: fs.encHash})
		at += len(fs.graph.Events)
	}
	s.spans = spans
	tUnion := time.Now()
	s.cfg.Metrics.ObserveDuration(obs.StageIncrRebuildUnion, tUnion.Sub(t0))
	if st.UnionRebuilt == "" {
		s.cfg.Metrics.Add(obs.CounterIncrUnionPatched, 1)
	} else {
		s.cfg.Metrics.Add(obs.CounterIncrUnionRebuilt, 1)
	}
	sys, delta := constraints.BuildIncremental(union, s.seed, s.cfg.ConstraintOptions(), spans, s.cache)
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
	// start at zero, exactly like a cold solve would start them. The
	// solver stops a warm solve by the rule it stops a cold one by (lp's
	// plateau window): starting at or near the previous optimum, the best
	// objective goes flat almost at once on a lightly-mutated corpus, and
	// that is the saving. Either way the solver compiles into the
	// standing row table.
	t0 = time.Now()
	cfg := s.cfg
	if s.rows == nil {
		s.rows = lp.NewRowTable()
	}
	cfg.Solver.Rows = s.rows
	if s.prev != nil {
		warm := make([]float64, sys.Problem.NumVars)
		for i, v := range sys.Vars {
			warm[i] = s.prev[PinKey{Rep: v.Rep, Role: v.Role}]
		}
		cfg.Solver.WarmStart = warm
		st.WarmStarted = true
	}
	res := core.LearnPrepared(union, sys, cfg)
	s.cfg.Metrics.ObserveDuration(obs.StageIncrResolve, time.Since(t0))
	st.RowsReused, st.RowsDead = res.SolverRowsReused, res.SolverRowsDead

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
	unionHow := "patched"
	if st.UnionRebuilt != "" {
		unionHow = "rebuilt:" + st.UnionRebuilt
	}
	s.cfg.Log.Log("incr.relearn", "files", st.Files, "changed", st.FilesChanged,
		"union", unionHow, "spans_reused", delta.SpansReused,
		"rows_reused", st.RowsReused, "rows_dead", st.RowsDead, "warm", st.WarmStarted,
		"epochs", res.SolverEpochs, "stop", res.SolverStop, "epochs_saved", st.EpochsSaved)

	s.result = res
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
// session to be reusable, as the solve will see them.
func (s *Session) knobs() sessionKnobs {
	c := s.cfg.WithDefaults()
	return sessionKnobs{C: c.Constraints.C, Lambda: c.Constraints.Lambda,
		Threshold: c.Threshold, Decay: c.BackoffDecay,
		Cutoff: c.Constraints.BackoffCutoff, MaxComponent: c.Constraints.MaxComponent}
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
