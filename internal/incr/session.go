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
//     support set is unchanged, takes a file's support fingerprint from
//     memory when neither its graph nor the global numbering moved, and
//     writes the constraint slice over the previous one from the first
//     block that changed,
//   - warm-starts projected Adam from the previous solution, translated
//     across variable renumbering by (rep, role); new variables start
//     cold and pinned variables are re-pinned on top. The solver compiles
//     into the session's standing row table (lp.RowTable), where every
//     reused flow block finds its rows by its fingerprint,
//   - applies feedback pins as hard LP constraints (lp.Problem.Pin).
//
// The session is the cache: union, flow cache and row table are standing
// state, each patched by the routine that also builds it from nothing and
// each rebuilt from nothing, by that routine, when a patch cannot be
// exact — the union when an edit would renumber symbols or has left too
// much dead space, the flow cache's fingerprint memory when the numbering
// moved, the rows when too many have gone dead. Only the flow cache's
// blocks are persisted (flowcache.bin, without the memory); the first
// Relearn after Load builds the rest. In return a core.Result is good
// only until its session's next Relearn, which edits the graph and the
// constraint slice the result points to.
//
// Determinism contract: the session's union is byte-identical to
// propgraph.Union over the current file set, the incrementally built
// constraint system to constraints.Build on it, and the solution
// bit-identical to lp.Minimize from the same warm start without a row
// table (all three pinned after every step of the edit-sequence oracle
// and the fuzz target). A session's first, cold solve learns the store
// a from-scratch run learns. A warm-started solve is not a cold one: it
// starts from the previous solution and stops on the same plateau rule,
// so after an edit its store can sit a few entries from the cold store
// of the same corpus (0–10 in ROADMAP item 2(c)'s measurements).
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
	"errors"
	"iter"
	"sort"
	"sync"
	"time"

	"seldon/internal/constraints"
	"seldon/internal/core"
	"seldon/internal/fpcache"
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

// fileState is one corpus file inside the session: its record, without a
// cost, the sha256 of its graph encoding, which keys the flow-constraint
// cache spans, and the decoded graph.
type fileState struct {
	fpcache.Record
	encHash [32]byte
	decoded *propgraph.Graph
}

// newFileState wraps a record and its decoded graph, hashing the encoding
// once for every Relearn the file will be part of.
func newFileState(rec fpcache.Record, g *propgraph.Graph) *fileState {
	return &fileState{Record: rec, encHash: sha256.Sum256(rec.Graph), decoded: g}
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

	// prev is the last solution keyed by (rep, role).
	prev map[PinKey]float64

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
	s := &Session{
		seed:  seed,
		cfg:   cfg,
		files: make(map[string]*fileState),
		cache: constraints.NewFlowCache(),
		pins:  make(map[PinKey]float64),
	}
	s.publishPins()
	return s
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

// CorpusFingerprint is specio.Fingerprint of the session's corpus,
// composed from the content hashes SpliceSources recorded: the provenance
// a store learned from the session carries. It is empty when some file
// was spliced as a graph, without its source.
func (s *Session) CorpusFingerprint() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fpcache.Fingerprint(s.records(s.sortedNames()))
}

// records yields the records of the named files, in order. The caller
// holds s.mu.
func (s *Session) records(names []string) iter.Seq[fpcache.Record] {
	return func(yield func(fpcache.Record) bool) {
		for _, n := range names {
			if !yield(s.files[n].Record) {
				return
			}
		}
	}
}

// EncodedGraph returns the binary encoding of the named file's graph,
// or nil when the file is not in the session. The returned slice must
// not be modified.
func (s *Session) EncodedGraph(name string) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fs := s.files[name]; fs != nil {
		return fs.Graph
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
	if old := s.files[name]; old == nil || !bytes.Equal(old.Graph, enc) {
		s.files[name] = newFileState(fpcache.Record{Name: name, Graph: enc}, g)
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
		if old := s.files[name]; old == nil || old.Source != hashes[name] {
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
		rec := fe.Record(i, changed[name])
		rec.Cost = 0 // a session has no use for it
		states[i] = newFileState(rec, fe.Graphs[i])
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
	s.publishPins()
	s.mu.Unlock()
	return true
}

// publishPins mirrors the pin set's size as the feedback.pinned_vars
// gauge, wherever the set changes, so the gauge is always Pins(): dormant
// pins (no variable in the current corpus) count. The caller holds s.mu
// or has s to itself.
func (s *Session) publishPins() {
	s.cfg.Metrics.Set(obs.GaugeFeedbackPinnedVars, float64(len(s.pins)))
}

// Pins returns the number of feedback pins, dormant ones included.
func (s *Session) Pins() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pins)
}

// Verdict is an operator's judgement of one (symbol, role) variable, as
// a `seldon learn -feedback` file lists it and as POST /v1/feedback
// resolves a request into (a finding's ID gives two, one per endpoint).
// Verdict is "accept" or "reject".
type Verdict struct {
	Symbol  string `json:"symbol"`
	Role    string `json:"role"`
	Verdict string `json:"verdict"`
}

// VerdictValue is the value a verdict pins its variable to: 1 for
// "accept", 0 for "reject".
func VerdictValue(verdict string) (float64, error) {
	if v, ok := map[string]float64{"accept": 1, "reject": 0}[verdict]; ok {
		return v, nil
	}
	return 0, errors.New(`verdict must be "accept" or "reject"`)
}

// Key validates v and returns the variable it pins and the value it pins
// it to.
func (v Verdict) Key() (PinKey, float64, error) {
	val, err := VerdictValue(v.Verdict)
	if err != nil {
		return PinKey{}, 0, err
	}
	if v.Symbol == "" {
		return PinKey{}, 0, errors.New("empty symbol")
	}
	role, ok := propgraph.ParseRole(v.Role)
	if !ok {
		return PinKey{}, 0, errors.New("role must be source, sanitizer, or sink")
	}
	return PinKey{Rep: v.Symbol, Role: role}, val, nil
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
	// solution.
	WarmStarted bool
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
				edits = append(edits, propgraph.UnionEdit{At: i, Ins: []*propgraph.Graph{fs.decoded}})
			case old[i].Hash != fs.encHash:
				edits = append(edits, propgraph.UnionEdit{At: i, Del: 1, Ins: []*propgraph.Graph{fs.decoded}})
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
			graphs[i] = s.files[n].decoded
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
	for _, n := range names {
		fs := s.files[n]
		spans = constraints.AppendSpan(spans, n, len(fs.decoded.Events), fs.encHash)
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
	for k, val := range s.pins {
		if id := sys.VarID(k.Rep, k.Role); id >= 0 {
			sys.Problem.Pin(id, val)
		}
	}
	s.cfg.Metrics.ObserveDuration(obs.StageIncrRebuild, time.Since(t0))

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
	res.ParseErrorFiles = fpcache.ParseErrorFiles(s.records(names))
	s.cfg.Metrics.ObserveDuration(obs.StageIncrResolve, time.Since(t0))
	st.RowsReused, st.RowsDead = res.SolverRowsReused, res.SolverRowsDead

	// Record the solution for the next warm start.
	sol := make(map[PinKey]float64, len(sys.Vars))
	for i, v := range sys.Vars {
		sol[PinKey{Rep: v.Rep, Role: v.Role}] = res.Solution[i]
	}
	s.prev = sol
	s.cfg.Metrics.Set(obs.GaugeIncrFiles, float64(st.Files))
	s.cfg.Metrics.Set(obs.GaugeIncrFilesChanged, float64(st.FilesChanged))
	unionHow := "patched"
	if st.UnionRebuilt != "" {
		unionHow = "rebuilt:" + st.UnionRebuilt
	}
	s.cfg.Log.Log("incr.relearn", "files", st.Files, "changed", st.FilesChanged,
		"union", unionHow, "spans_reused", delta.SpansReused, "spans_hashed", delta.SpansHashed,
		"rows_reused", st.RowsReused, "rows_dead", st.RowsDead, "warm", st.WarmStarted,
		"epochs", res.SolverEpochs, "stop", res.SolverStop)

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
		Threshold: c.Threshold, Cutoff: c.Constraints.BackoffCutoff}
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
