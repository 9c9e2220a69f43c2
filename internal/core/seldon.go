// Package core implements Seldon's end-to-end specification-learning
// pipeline (paper Fig. 1): per-program propagation graphs are merged into
// a global graph, the linear constraint system of §4 is built and solved
// with projected Adam, and roles are selected per event with the
// exponentially decaying backoff threshold of §7.1.
package core

import (
	"math"
	"sort"
	"time"

	"seldon/internal/constraints"
	"seldon/internal/fpcache"
	"seldon/internal/lp"
	"seldon/internal/obs"
	"seldon/internal/obs/trace"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
)

// backoffDecay discounts less specific backoff options: option i
// (0-based) is selected when backoffDecay^i * score >= Config.Threshold
// (§7.1).
const backoffDecay = 0.8

// Config collects the tunable parameters; zero values select the paper's
// settings (C = 0.75, λ = 0.1, backoff cutoff 5, threshold 0.1).
type Config struct {
	Constraints constraints.Options
	Solver      lp.Options
	// Threshold t for selecting roles (§7.2: 0.1).
	Threshold float64
	// Workers bounds the goroutines of the corpus front-end (per-file
	// parse + dataflow) and of the constraint build (par.Workers: 0
	// selects GOMAXPROCS, 1 runs on the caller's goroutine). Results are
	// byte-identical at every worker count.
	Workers int
	// Cache, when non-nil, is the persistent per-file analysis cache
	// (internal/fpcache): each front-end worker consults it before
	// parse+dataflow and writes back on miss. Results are byte-identical
	// with or without it, from any mix of hits and misses.
	Cache *fpcache.Cache
	// Scratch, when non-nil, is the reusable per-file parse+dataflow
	// state of the front-end's first worker (the others make their own
	// for the batch). Callers that run one file per call — the serving
	// hot path — pool these across calls so the steady state allocates
	// little beyond the graphs. Results are byte-identical with or
	// without it.
	Scratch *Scratch
	// Metrics, when non-nil, receives stage timers, per-file timings,
	// parse-error and cache counters, the interning summary and the
	// solver convergence trace: every figure of a run besides what it
	// learned. Nil keeps the pipeline on its telemetry-free fast path.
	Metrics *obs.Registry
	// Span, when non-nil, is the parent span the run's stage spans hang
	// off: each pipeline stage becomes a timed child, so the whole run
	// decomposes in the owning trace (obs/trace). Nil disables tracing.
	Span *trace.Span
	// Log, when non-nil, receives one structured line per stage.
	Log *obs.Logger
}

// WithDefaults fills every zero learning knob, the constraint build's
// included, with the paper's setting.
func (c Config) WithDefaults() Config {
	if c.Threshold == 0 {
		c.Threshold = 0.1
	}
	c.Constraints = c.Constraints.WithDefaults()
	return c
}

// ConstraintOptions is Config.Constraints as a build of this run takes
// it: reporting to the run's registry, on the front-end's workers.
func (c Config) ConstraintOptions() constraints.Options {
	o := c.Constraints
	o.Metrics, o.Workers = c.Metrics, c.Workers
	return o
}

// Prediction is one selected (event, role) with the representation and
// score that triggered the selection.
type Prediction struct {
	EventID int
	Role    propgraph.Role
	Rep     string  // the triggering (most specific passing) representation
	Score   float64 // raw solver score of that representation
	Backoff int     // index of the triggering backoff option
}

// Result is the outcome of a learning run: what was learned and from
// what. How long each stage took, what the cache served and what the
// front-end's pool did are Config.Metrics' figures, not the Result's.
type Result struct {
	Graph    *propgraph.Graph
	System   *constraints.System
	Solution []float64

	// SolverEpochs is the number of epochs the solver ran and SolverStop
	// why it stopped; lp.StopCap means it ran out of epochs before
	// converging.
	SolverEpochs int
	SolverStop   lp.StopReason
	// SolverRowsReused and SolverRowsDead are lp.Result's RowsReused and
	// RowsDead: what a standing row table (Config.Solver.Rows) spared and
	// what it carries; 0 without one.
	SolverRowsReused int
	SolverRowsDead   int
	// ParseErrorFiles names, in sorted order, the files whose parse
	// reported an error; analysis still ran over the recovered AST.
	// LearnFromSources fills it; callers of Learn and LearnPrepared that
	// know their corpus may.
	ParseErrorFiles []string

	// Predictions lists every selected (event, role), event-ID order.
	Predictions []Prediction
	// selected lists the (rep, role) pairs of Predictions, each once, in
	// the order of its first prediction, with its score.
	selected []spec.Entry
}

// RunStage times f as one pipeline stage: the duration goes to the
// metrics registry, the stage log, and — when Config.Span is set — a
// child span of the run's trace. Every stage of every way into the
// pipeline, the coordinator's gather included, is timed here.
func RunStage(cfg Config, name string, f func()) {
	sp := cfg.Span.StartChild(name)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	sp.End()
	cfg.Metrics.ObserveDuration(name, d)
	cfg.Log.Log(name, "dur", d.Round(time.Microsecond))
}

// Learn runs specification inference over a global propagation graph.
func Learn(g *propgraph.Graph, seed *spec.Spec, cfg Config) *Result {
	cfg = cfg.WithDefaults()
	res := &Result{Graph: g}
	RunStage(cfg, obs.StageConstraints, func() {
		res.System = constraints.Build(g, seed, cfg.ConstraintOptions())
	})
	res.solveAndSelect(cfg)
	return res
}

// LearnPrepared runs the solve + select half of the pipeline over an
// already-built constraint system, skipping constraints.Build. It is the
// entry point for callers that assemble the system some other way — the
// incremental session (internal/incr) rebuilds only the constraint
// blocks whose supporting files changed and hands the spliced system
// here, typically with Config.Solver.WarmStart carrying the previous
// solution. The result is identical to Learn on the same (graph, system)
// pair.
func LearnPrepared(g *propgraph.Graph, sys *constraints.System, cfg Config) *Result {
	cfg = cfg.WithDefaults()
	res := &Result{Graph: g, System: sys}
	res.solveAndSelect(cfg)
	return res
}

// solveAndSelect finishes a learning run whose System is already in
// place: projected-Adam solve and role selection.
func (res *Result) solveAndSelect(cfg Config) {
	solverOpts := cfg.Solver
	lastActive := 0
	if cfg.Metrics != nil {
		user := solverOpts.OnEpoch
		reg := cfg.Metrics
		solverOpts.OnEpoch = func(s lp.EpochStats) {
			lastActive = s.Active
			reg.AppendTrace(obs.TraceSolver, int64(s.Epoch), map[string]float64{
				"objective": s.Objective,
				"best":      s.Best,
				"violation": s.Violation,
				"active":    float64(s.Active),
				"l1":        s.L1,
				"grad_norm": s.GradNorm,
				"step_size": s.StepSize,
				"elapsed_s": s.Elapsed.Seconds(),
			})
			if user != nil {
				user(s)
			}
		}
	}
	var sol *lp.Result
	RunStage(cfg, obs.StageSolve, func() {
		sol = lp.Minimize(res.System.Problem, solverOpts)
	})
	res.Solution = sol.X
	res.SolverEpochs, res.SolverStop = sol.Iterations, sol.Stop
	res.SolverRowsReused, res.SolverRowsDead = sol.RowsReused, sol.RowsDead
	cfg.Metrics.Set(obs.GaugeSolverEpochs, float64(sol.Iterations))
	cfg.Metrics.Set(obs.GaugeSolverObjective, sol.Objective)
	cfg.Metrics.Set(obs.GaugeSolverViolation, sol.Violation)
	cfg.Metrics.Set(obs.GaugeSolverConstraints, float64(len(res.System.Problem.Constraints)))
	cfg.Metrics.Set(obs.GaugeSolverRows, float64(sol.Rows))
	cfg.Metrics.Set(obs.GaugeSolverActive, float64(lastActive))
	cfg.Metrics.Set(obs.GaugeSolverRowsReused, float64(sol.RowsReused))
	cfg.Metrics.Set(obs.GaugeSolverRowsDead, float64(sol.RowsDead))
	cfg.Log.Log("solver.done", "epochs", sol.Iterations, "stop", sol.Stop,
		"objective", sol.Objective, "violation", sol.Violation)

	RunStage(cfg, obs.StageSelect, func() {
		res.selectRoles(cfg)
	})
	cfg.Metrics.Set(obs.GaugeSelectPredictions, float64(len(res.Predictions)))
}

// LearnFromSources parses and analyzes a set of Python files (name →
// source text) and learns over their union graph. Per-file work is fanned
// out over Config.Workers goroutines (see AnalyzeFiles); file order is
// made deterministic by sorting names and merging in that order, so the
// result is byte-identical at every worker count. Parse errors are
// tolerated — files contribute whatever was recovered — but they are not
// silent: they are listed in Result.ParseErrorFiles, counted in
// Config.Metrics, and logged through Config.Log.
func LearnFromSources(files map[string]string, seed *spec.Spec, cfg Config) *Result {
	feStart := time.Now()
	fe := AnalyzeFiles(files, cfg)
	// The front-end interleaves per-file parse and dataflow across the
	// pool, so the two stages exist only as summed per-file times; record
	// them as completed spans laid end to end inside the front-end wall.
	cfg.Span.AddChildAt(obs.StageParse, feStart, fe.ParseTotal,
		trace.String("files", len(files)), trace.String("summed", "per-file"))
	cfg.Span.AddChildAt(obs.StageDataflow, feStart.Add(fe.ParseTotal), fe.AnalyzeTotal,
		trace.String("summed", "per-file"))
	var union *propgraph.Graph
	RunStage(cfg, obs.StageUnion, func() {
		union = propgraph.Union(fe.Graphs...)
	})
	// Past the union nothing reads the per-file graphs: fe goes out of
	// use here, so the collector can free them while Learn runs.
	parseErrs := fe.ParseErrorFiles

	res := Learn(union, seed, cfg)
	res.ParseErrorFiles = parseErrs
	return res
}

// selectRoles applies §7.1: for each candidate event and allowed role,
// walk the backoff options from most to least specific and select the
// role at the first option i where decay^i * score passes the threshold.
// That depends on the option's (rep, role) variable and on i alone, so
// reach[id] counts the leading depths where decay[i]*score >= threshold
// holds; scores lie in the solver's box [0, 1], where decay[i]*score
// falls with i, so exactly the depths below reach pass. Every (rep, role)
// of a candidate event has a variable. One walk appends the predictions
// into room for half the candidate events (0.46–0.49 of them are
// predicted from 400 to 6000 files), and records each selected variable
// once for LearnedSpec and LearnedEntries.
func (r *Result) selectRoles(cfg Config) {
	sys := r.System
	strs := sys.Syms.Strings()
	deepest := 0
	for i := range sys.EventInfos {
		deepest = max(deepest, len(sys.EventInfos[i].RepIDs))
	}
	decay := make([]float64, deepest)
	for i := range decay {
		decay[i] = math.Pow(backoffDecay, float64(i))
	}
	reach := make([]int32, len(r.Solution))
	for id, score := range r.Solution {
		for int(reach[id]) < deepest && decay[reach[id]]*score >= cfg.Threshold {
			reach[id]++
		}
	}
	picked := make([]bool, len(r.Solution))
	if half := len(sys.EventInfos) / 2; half > 0 {
		r.Predictions = make([]Prediction, 0, half)
	}
	for idx := range sys.EventInfos {
		info := &sys.EventInfos[idx]
		for _, role := range propgraph.Roles() {
			if !info.Roles.Has(role) {
				continue
			}
			for i, sym := range info.RepIDs {
				id := sys.VarIDSym(sym, role)
				if id < 0 || i >= int(reach[id]) {
					continue
				}
				score := r.Solution[id]
				r.Predictions = append(r.Predictions, Prediction{
					EventID: info.EventID, Role: role, Rep: strs[sym],
					Score: score, Backoff: i,
				})
				if !picked[id] {
					picked[id] = true
					r.selected = append(r.selected, spec.Entry{Rep: strs[sym], Role: role, Score: score})
				}
				break
			}
		}
	}
}

// PredictedCounts returns the number of events predicted for each role.
func (r *Result) PredictedCounts() map[propgraph.Role]int {
	out := make(map[propgraph.Role]int)
	for _, p := range r.Predictions {
		out[p.Role]++
	}
	return out
}

// LearnedSpec converts the predictions into a representation-level
// specification usable by the taint analyzer. Each (rep, role) keeps its
// maximal score; seed entries are merged in (they remain authoritative),
// each seed sink with the argument positions the seed restricts it to.
func (r *Result) LearnedSpec(seed *spec.Spec) *spec.Spec {
	s := spec.New()
	for _, e := range seed.Entries() {
		s.Add(e.Role, e.Rep)
	}
	for _, rep := range seed.Sinks {
		if args := seed.SinkArgsOf(rep); args != nil {
			s.RestrictSinkArgs(rep, args...)
		}
	}
	s.Blacklist = seed.Blacklist
	for _, e := range r.selected {
		s.Add(e.Role, e.Rep)
	}
	return s
}

// LearnedEntries returns the predictions that are NOT in the seed,
// deduplicated by (rep, role) — every prediction of one carries its
// variable's score — and scoring above 0, sorted by descending score,
// then role, then rep. These are the paper's "inferred specifications".
func (r *Result) LearnedEntries(seed *spec.Spec) []spec.Entry {
	out := make([]spec.Entry, 0, len(r.selected))
	for _, e := range r.selected {
		if e.Score > 0 && !seed.RolesOf(e.Rep).Has(e.Role) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].Role != out[j].Role {
			return out[i].Role < out[j].Role
		}
		return out[i].Rep < out[j].Rep
	})
	return out
}
