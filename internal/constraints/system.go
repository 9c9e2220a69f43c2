// Package constraints turns a global propagation graph and a seed
// specification into the relaxed linear constraint system of paper §4:
// one variable per (representation, role), information-flow constraints
// following the three patterns of Fig. 4, backoff averaging (§4.3), and
// equality constraints for the hand-labeled seed (§4.1).
//
// The build works on interned symbols throughout: representation
// frequencies and the (representation, role) → variable mapping live in
// dense arrays indexed by propgraph.Sym instead of string-keyed maps,
// and the frequency, candidate-filter, flow and span-fingerprint passes
// fan out through internal/par. Results are bitwise identical at every
// worker count — every item writes by its index, the candidate lists of
// contiguous event ranges are joined in range order, and the frequency
// merge is an integer sum.
package constraints

import (
	"time"

	"seldon/internal/lp"
	"seldon/internal/obs"
	"seldon/internal/par"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
)

// Options configures constraint generation.
type Options struct {
	// C is the implication-strength constant (paper: 0.75).
	C float64
	// Lambda is the L1 regularization weight (paper: 0.1).
	Lambda float64
	// BackoffCutoff drops representations occurring fewer times in the
	// dataset (paper: 5). Seed representations always survive.
	BackoffCutoff int
	// Workers bounds the goroutines used for the frequency,
	// candidate-filter, flow and span-fingerprint passes (par.Workers: 0
	// selects GOMAXPROCS, 1 runs them on the caller's goroutine). Results
	// are bitwise identical at every count.
	Workers int
	// Metrics, when non-nil, receives constraint-system size gauges
	// (variables, events, per-pattern constraint counts) and the
	// stage.constraints.* sub-timers.
	Metrics *obs.Registry
	// maxComponent skips constraint generation inside weakly connected
	// components larger than this bound (guards against pathological
	// generated files): 50000, lowered only by this package's tests.
	maxComponent int
}

// WithDefaults fills every zero knob with the paper's setting.
func (o Options) WithDefaults() Options {
	if o.C == 0 {
		o.C = 0.75
	}
	if o.Lambda == 0 {
		o.Lambda = 0.1
	}
	if o.BackoffCutoff == 0 {
		o.BackoffCutoff = 5
	}
	if o.maxComponent == 0 {
		o.maxComponent = 50000
	}
	return o
}

// Variable identifies one score in the system.
type Variable struct {
	Rep  string
	Role propgraph.Role
}

// EventInfo records, per candidate event, the representations that
// survived the frequency cutoff and blacklist (most specific first), as
// symbols in the graph's table.
type EventInfo struct {
	EventID int
	RepIDs  []propgraph.Sym
	Roles   propgraph.RoleSet
}

// System is the constraint system plus the metadata needed to map solver
// scores back to events and representations.
type System struct {
	Problem *lp.Problem
	Vars    []Variable
	// Syms is the graph's symbol table; EventInfo.RepIDs and the
	// variable index are expressed against it.
	Syms *propgraph.Interner
	// varIDs maps sym*NumRoles+role to a variable index, -1 when absent.
	varIDs []int32
	// varSyms records the symbol of each variable, aligned with Vars.
	varSyms []propgraph.Sym
	// EventInfos lists candidate events in event-ID order.
	EventInfos []EventInfo
	// infoByEvent maps event ID to its position in EventInfos (or -1).
	infoByEvent []int
	// Counts of generated constraints by pattern (Fig. 4a, 4b, 4c).
	CountA, CountB, CountC int
	// SkippedComponents counts components over the component bound.
	SkippedComponents int
	Opts              Options
}

// VarIDSym returns the variable index for (sym, role), or -1.
func (s *System) VarIDSym(sym propgraph.Sym, role propgraph.Role) int {
	slot := int(sym)*int(propgraph.NumRoles) + int(role)
	if slot < 0 || slot >= len(s.varIDs) {
		return -1
	}
	if id := s.varIDs[slot]; id >= 0 {
		return int(id)
	}
	return -1
}

// VarID returns the variable index for (rep, role), or -1.
func (s *System) VarID(rep string, role propgraph.Role) int {
	sym, ok := s.Syms.Lookup(rep)
	if !ok {
		return -1
	}
	return s.VarIDSym(sym, role)
}

// InfoFor returns the EventInfo for an event ID, or nil if the event is
// not a candidate.
func (s *System) InfoFor(eventID int) *EventInfo {
	if eventID < 0 || eventID >= len(s.infoByEvent) || s.infoByEvent[eventID] < 0 {
		return nil
	}
	return &s.EventInfos[s.infoByEvent[eventID]]
}

// Build constructs the constraint system for a global propagation graph:
// BuildIncremental with nothing to reuse.
func Build(g *propgraph.Graph, seed *spec.Spec, opts Options) *System {
	s, _ := BuildIncremental(g, seed, opts, nil, nil)
	return s
}

// buildCore runs passes 1–3 (frequencies, candidate filter, variables +
// seed pins) and returns the system ready for flow-constraint
// generation, plus the resolved worker count. It is shared by Build and
// BuildIncremental so both produce bit-identical variable tables. When
// numbering is non-nil it also receives the system's numbering digest.
func buildCore(g *propgraph.Graph, seed *spec.Spec, opts Options, numbering *[32]byte) (*System, int) {
	s := &System{
		Syms:        g.Syms,
		infoByEvent: make([]int, len(g.Events)),
		Opts:        opts,
	}
	m := opts.Metrics
	strs := g.Syms.Strings()
	nsyms := len(strs)
	workers := par.Workers(opts.Workers, len(g.Events))
	// Passes 1 and 2 deal one contiguous event range to each worker.
	ranges := func(r int) (lo, hi int) {
		return r * len(g.Events) / workers, (r + 1) * len(g.Events) / workers
	}

	// Pass 1: representation frequencies across the dataset, counted per
	// worker and merged by integer sum (order-free, so identical at every
	// worker count); worker 0 counts into the total itself.
	//
	// Frequency semantics, pinned by TestBuildCountsRepOccurrences: a
	// representation counts once per occurrence in an event's backoff
	// chain, NOT once per event. If the same representation appears at
	// several backoff levels of one event (class base chains can repeat a
	// name), every slot contributes to the count that BackoffCutoff is
	// compared against — exactly what the original string-keyed
	// implementation did.
	t0 := time.Now()
	counts := make([][]int32, workers)
	for w := range counts {
		counts[w] = make([]int32, nsyms)
	}
	par.For(workers, workers, func(w, r int) {
		cnt := counts[w]
		lo, hi := ranges(r)
		for id := lo; id < hi; id++ {
			for _, sym := range g.RepIDs(id) {
				cnt[sym]++
			}
		}
	})
	repCount := counts[0]
	for _, cnt := range counts[1:] {
		for i, c := range cnt {
			repCount[i] += c
		}
	}
	m.ObserveDuration(obs.StageConstraintsFreq, time.Since(t0))

	// Pass 2: candidate events and their surviving representations. Seed
	// roles and the glob blacklist are evaluated once per distinct symbol
	// (spec.SymIndex), then each range is filtered into its own arena and
	// into the event table from the range's first slot on (a range keeps
	// at most one event per slot it spans). Moving each range's events
	// down behind the previous range's, in range order, leaves exactly
	// the sequential order.
	t0 = time.Now()
	ix := seed.IndexStrings(strs)
	cutoff := int32(opts.BackoffCutoff)
	infos := make([]EventInfo, len(g.Events))
	kept := make([]int, workers)
	par.For(workers, workers, func(_, r int) {
		lo, hi := ranges(r)
		// Pre-size to upper bounds (every occurrence surviving) so the
		// filter loop never reallocates.
		occ := 0
		for id := lo; id < hi; id++ {
			occ += g.NumReps(id)
		}
		out := infos[lo:lo:hi]
		starts := make([]int, 0, hi-lo)
		arena := make([]propgraph.Sym, 0, occ)
		for id := lo; id < hi; id++ {
			start := len(arena)
			for _, sym := range g.RepIDs(id) {
				if ix.Blacklisted(sym) {
					continue
				}
				if repCount[sym] >= cutoff || ix.Roles(sym) != 0 {
					arena = append(arena, sym)
				}
			}
			if len(arena) == start {
				continue
			}
			out = append(out, EventInfo{EventID: id, Roles: g.Events[id].Roles})
			starts = append(starts, start)
		}
		// The arena no longer grows; carve the per-event slices.
		for i := range out {
			end := len(arena)
			if i+1 < len(out) {
				end = starts[i+1]
			}
			out[i].RepIDs = arena[starts[i]:end:end]
		}
		kept[r] = len(out)
	})
	n := 0
	for r, k := range kept {
		lo, _ := ranges(r)
		n += copy(infos[n:], infos[lo:lo+k])
	}
	s.EventInfos = infos[:n]
	for i := range s.infoByEvent {
		s.infoByEvent[i] = -1
	}
	for i := range s.EventInfos {
		s.infoByEvent[s.EventInfos[i].EventID] = i
	}
	m.ObserveDuration(obs.StageConstraintsFilter, time.Since(t0))

	// Pass 3: variables, one per surviving (rep, role), assigned in
	// first-seen order over (event, role, backoff) — the same order the
	// string-keyed implementation produced.
	t0 = time.Now()
	s.varIDs = make([]int32, nsyms*int(propgraph.NumRoles))
	for i := range s.varIDs {
		s.varIDs[i] = -1
	}
	for i := range s.EventInfos {
		info := &s.EventInfos[i]
		for _, role := range propgraph.Roles() {
			if !info.Roles.Has(role) {
				continue
			}
			for _, sym := range info.RepIDs {
				slot := int(sym)*int(propgraph.NumRoles) + int(role)
				if s.varIDs[slot] < 0 {
					s.varIDs[slot] = int32(len(s.Vars))
					s.Vars = append(s.Vars, Variable{Rep: strs[sym], Role: role})
					s.varSyms = append(s.varSyms, sym)
				}
			}
		}
	}

	// Known variables from the seed: an entry pins its role to 1 and the
	// rep's other roles to 0 (§4.1). Seed entries are fully qualified
	// names, i.e. longest backoff options.
	known := make(map[int]float64)
	for i, v := range s.Vars {
		roles := ix.Roles(s.varSyms[i])
		if roles == 0 {
			continue
		}
		if roles.Has(v.Role) {
			known[i] = 1
		} else {
			known[i] = 0
		}
	}

	if numbering != nil {
		*numbering = s.numberingDigest(func(sym propgraph.Sym) bool {
			n := repCount[sym]
			return n > 0 && !ix.Blacklisted(sym) && (n >= cutoff || ix.Roles(sym) != 0)
		})
	}

	s.Problem = &lp.Problem{
		NumVars: len(s.Vars),
		C:       opts.C,
		Lambda:  opts.Lambda,
		Known:   known,
	}
	m.ObserveDuration(obs.StageConstraintsVars, time.Since(t0))
	return s, workers
}

// finishMetrics publishes the constraint-system size gauges once the
// flow pass has run.
func (s *System) finishMetrics(workers int) {
	m := s.Opts.Metrics
	m.Set(obs.GaugeConstraintsVars, float64(len(s.Vars)))
	m.Set(obs.GaugeConstraintsKnownVars, float64(len(s.Problem.Known)))
	m.Set(obs.GaugeConstraintsEvents, float64(len(s.EventInfos)))
	m.Set(obs.GaugeConstraintsTotal, float64(len(s.Problem.Constraints)))
	m.Set(obs.GaugeConstraintsPatternA, float64(s.CountA))
	m.Set(obs.GaugeConstraintsPatternB, float64(s.CountB))
	m.Set(obs.GaugeConstraintsPatternC, float64(s.CountC))
	m.Set(obs.GaugeConstraintsSkipped, float64(s.SkippedComponents))
	m.Set(obs.GaugeConstraintsWorkers, float64(workers))
}
