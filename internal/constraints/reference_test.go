package constraints

import (
	"crypto/sha256"
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"seldon/internal/lp"
	"seldon/internal/propgraph"
	"seldon/internal/pytoken"
	"seldon/internal/spec"
)

// referenceBuild is the original string-keyed constraint build, kept as a
// test oracle and benchmark baseline for the interned path: pass 1 counts
// representation frequencies in a map[string]int, pass 2 filters with
// per-occurrence spec lookups (glob blacklist matched per occurrence),
// pass 3 assigns variables through a map[Variable]int, pass 4 is the
// sequential flow pass below. reps and symOf
// stand in for the strings the events used to carry by value; callers
// precompute them (outside the timer in benchmarks).
func referenceBuild(g *propgraph.Graph, reps [][]string, symOf map[string]propgraph.Sym,
	seed *spec.Spec, opts Options) *System {
	opts = opts.WithDefaults()
	s := &System{
		Syms:        g.Syms,
		infoByEvent: make([]int, len(g.Events)),
		Opts:        opts,
	}

	// Pass 1: string-keyed rep frequencies, one count per occurrence.
	repCount := make(map[string]int)
	for _, rs := range reps {
		for _, r := range rs {
			repCount[r]++
		}
	}

	// Pass 2: candidate filtering with per-occurrence seed lookups.
	for i := range s.infoByEvent {
		s.infoByEvent[i] = -1
	}
	for id, e := range g.Events {
		var kept []string
		for _, r := range reps[id] {
			if seed.Blacklisted(r) {
				continue
			}
			if repCount[r] >= opts.BackoffCutoff || seed.RolesOf(r) != 0 {
				kept = append(kept, r)
			}
		}
		if len(kept) == 0 {
			continue
		}
		ids := make([]propgraph.Sym, len(kept))
		for i, r := range kept {
			ids[i] = symOf[r]
		}
		s.infoByEvent[id] = len(s.EventInfos)
		s.EventInfos = append(s.EventInfos, EventInfo{EventID: id, RepIDs: ids, Roles: e.Roles})
	}

	// Pass 3: first-seen variable assignment through a string-keyed map.
	varIndex := make(map[Variable]int)
	for i := range s.EventInfos {
		info := &s.EventInfos[i]
		for _, role := range propgraph.Roles() {
			if !info.Roles.Has(role) {
				continue
			}
			for _, sym := range info.RepIDs {
				v := Variable{Rep: g.Syms.Str(sym), Role: role}
				if _, ok := varIndex[v]; !ok {
					varIndex[v] = len(s.Vars)
					s.Vars = append(s.Vars, v)
					s.varSyms = append(s.varSyms, sym)
				}
			}
		}
	}
	// Dense lookup table for the shared flow pass.
	s.varIDs = make([]int32, g.Syms.Len()*int(propgraph.NumRoles))
	for i := range s.varIDs {
		s.varIDs[i] = -1
	}
	for i, v := range s.Vars {
		s.varIDs[int(s.varSyms[i])*int(propgraph.NumRoles)+int(v.Role)] = int32(i)
	}

	known := make(map[int]float64)
	for i, v := range s.Vars {
		roles := seed.RolesOf(v.Rep)
		if roles == 0 {
			continue
		}
		if roles.Has(v.Role) {
			known[i] = 1
		} else {
			known[i] = 0
		}
	}
	s.Problem = &lp.Problem{NumVars: len(s.Vars), C: opts.C, Lambda: opts.Lambda, Known: known}
	s.refFlowConstraints(g)
	return s
}

// prepReference materializes what the pre-interning events carried by
// value: per-event representation strings and the string → symbol map.
func prepReference(g *propgraph.Graph) ([][]string, map[string]propgraph.Sym) {
	reps := make([][]string, len(g.Events))
	for id := range g.Events {
		reps[id] = g.Reps(id)
	}
	symOf := make(map[string]propgraph.Sym)
	for i, str := range g.Syms.Strings() {
		symOf[str] = propgraph.Sym(i)
	}
	return reps, symOf
}

// corpusGraph unions nFiles synthetic per-file graphs with overlapping
// representations (shared APIs across files, per-file locals below the
// cutoff, blacklisted reps, multi-level backoff chains).
func corpusGraph(nFiles, eventsPerFile int) *propgraph.Graph {
	return propgraph.Union(corpusFileGraphs(nFiles, eventsPerFile)...)
}

// corpusFileGraphs builds corpusGraph's inputs.
func corpusFileGraphs(nFiles, eventsPerFile int) []*propgraph.Graph {
	graphs := make([]*propgraph.Graph, nFiles)
	kinds := []propgraph.EventKind{propgraph.KindCall, propgraph.KindRead, propgraph.KindParam}
	for f := range graphs {
		gb := new(propgraph.Builder)
		for i := 0; i < eventsPerFile; i++ {
			var reps []string
			switch i % 4 {
			case 0: // shared API with backoff, frequent across files
				reps = []string{fmt.Sprintf("pkg.mod%d.api%d()", i%7, i%11),
					fmt.Sprintf("mod%d.api%d()", i%7, i%11),
					fmt.Sprintf("api%d()", i%11)}
			case 1: // per-file local, below any cutoff > 1
				reps = []string{fmt.Sprintf("file%d.local%d()", f, i)}
			case 2: // blacklist bait
				reps = []string{fmt.Sprintf("obj%d.append()", i%5), "append()"}
			default: // frequent single rep
				reps = []string{fmt.Sprintf("shared.helper%d()", i%3)}
			}
			gb.AddEvent(kinds[i%len(kinds)], fmt.Sprintf("f%d.py", f),
				pytoken.Pos{Line: i + 1}, reps)
		}
		// Short flow chains: real corpus graphs decompose into many small
		// weak components (maxComponent bounds the rest), so the flow pass
		// stays proportionate and the rep-handling passes dominate.
		for i := 0; i+1 < eventsPerFile; i++ {
			if i%16 < 3 {
				gb.AddEdge(i, i+1)
			}
		}
		graphs[f] = gb.Build()
	}
	return graphs
}

// flowFixture is a corpus for the flow pass: enough regular files to
// give every worker count several ranges, and between them the shapes
// the pass treats specially — a file that is one component larger than
// flowFixtureMaxComponent, a file with a cycle (reachability by fixpoint),
// a file of one event, and a file of none. It returns the union and the
// span of each file.
func flowFixture() (*propgraph.Graph, []Span) {
	chain := func(file string, n int, cyclic bool) *propgraph.Graph {
		gb := new(propgraph.Builder)
		for i := 0; i < n; i++ {
			gb.AddEvent(propgraph.KindCall, file, pytoken.Pos{Line: i + 1},
				[]string{fmt.Sprintf("shared.helper%d()", i%3), fmt.Sprintf("api%d()", i%11)})
			if i > 0 {
				gb.AddEdge(i-1, i)
			}
		}
		if cyclic {
			gb.AddEdge(n-2, 1)
		}
		return gb.Build()
	}
	graphs := corpusFileGraphs(40, 60)
	graphs[3] = chain("big.py", flowFixtureMaxComponent+30, false)
	graphs[11] = chain("cycle.py", 6, true)
	graphs[12] = chain("one.py", 1, false)
	graphs[20] = new(propgraph.Builder).Build()
	graphs[39] = chain("pair.py", 2, false)
	spans := make([]Span, len(graphs))
	at := 0
	for i, g := range graphs {
		spans[i] = Span{File: fmt.Sprintf("f%02d", i), Lo: at, Hi: at + len(g.Events),
			Hash: sha256.Sum256(g.AppendBinary(nil))}
		at = spans[i].Hi
	}
	return propgraph.Union(graphs...), spans
}

const flowFixtureMaxComponent = 50

func corpusSeed() *spec.Spec {
	seed := spec.New()
	seed.Add(propgraph.Source, "pkg.mod0.api0()")
	seed.Add(propgraph.Sanitizer, "shared.helper1()")
	seed.Add(propgraph.Sink, "pkg.mod3.api7()")
	seed.Add(propgraph.Sink, "file0.local5()") // seeded rep below the cutoff
	seed.AddBlacklist("*.append()")
	seed.AddBlacklist("append()")
	return seed
}

// assertSystemsEqual compares everything downstream consumers read from a
// System (the Opts field is allowed to differ, e.g. in Workers).
func assertSystemsEqual(t *testing.T, label string, got, want *System) {
	t.Helper()
	if !reflect.DeepEqual(got.Vars, want.Vars) {
		t.Fatalf("%s: Vars differ: %d vs %d entries", label, len(got.Vars), len(want.Vars))
	}
	if !reflect.DeepEqual(got.varSyms, want.varSyms) {
		t.Fatalf("%s: varSyms differ", label)
	}
	if !reflect.DeepEqual(got.varIDs, want.varIDs) {
		t.Fatalf("%s: varIDs differ", label)
	}
	if !reflect.DeepEqual(got.EventInfos, want.EventInfos) {
		t.Fatalf("%s: EventInfos differ: %d vs %d", label, len(got.EventInfos), len(want.EventInfos))
	}
	if !reflect.DeepEqual(got.infoByEvent, want.infoByEvent) {
		t.Fatalf("%s: infoByEvent differs", label)
	}
	// Blocks say where the incremental build took its constraints from
	// (TestBuildIncrementalRecordsBlocks); the problem must be the same
	// with or without them.
	gp, wp := *got.Problem, *want.Problem
	gp.Blocks, wp.Blocks = nil, nil
	if !reflect.DeepEqual(gp, wp) {
		t.Fatalf("%s: Problem differs (constraints %d vs %d)",
			label, len(got.Problem.Constraints), len(want.Problem.Constraints))
	}
	if got.CountA != want.CountA || got.CountB != want.CountB || got.CountC != want.CountC ||
		got.SkippedComponents != want.SkippedComponents {
		t.Fatalf("%s: counts differ: %d/%d/%d/%d vs %d/%d/%d/%d", label,
			got.CountA, got.CountB, got.CountC, got.SkippedComponents,
			want.CountA, want.CountB, want.CountC, want.SkippedComponents)
	}
}

// TestBuildMatchesStringReference pins the tentpole requirement: the
// interned, sharded Build must produce a constraint system identical to
// the original string-keyed implementation, at every worker count.
func TestBuildMatchesStringReference(t *testing.T) {
	g := corpusGraph(6, 40)
	seed := corpusSeed()
	reps, symOf := prepReference(g)
	for _, cutoff := range []int{1, 2, 5} {
		want := referenceBuild(g, reps, symOf, seed, Options{BackoffCutoff: cutoff})
		if cutoff == 1 && len(want.Problem.Constraints) == 0 {
			t.Fatal("fixture generates no flow constraints")
		}
		for _, workers := range []int{1, 4} {
			got := Build(g, seed, Options{BackoffCutoff: cutoff, Workers: workers})
			assertSystemsEqual(t, fmt.Sprintf("cutoff=%d workers=%d", cutoff, workers), got, want)
		}
	}
}

// TestBuildWorkersBitwiseIdentical compares the sharded build — cold,
// incremental on an empty cache, incremental on a warm one — against the
// sequential reference over flowFixture at every worker count, including
// Workers: 0 (GOMAXPROCS). assertSystemsEqual is reflect.DeepEqual on the
// problem, so a right-hand side that is nil in one and empty in the other
// is a difference, as it is to the benchmark's own check.
func TestBuildWorkersBitwiseIdentical(t *testing.T) {
	g, spans := flowFixture()
	seed := corpusSeed()
	reps, symOf := prepReference(g)
	want := referenceBuild(g, reps, symOf, seed, Options{maxComponent: flowFixtureMaxComponent})
	if want.SkippedComponents != 1 || want.CountA == 0 || want.CountB == 0 || want.CountC == 0 {
		t.Fatalf("fixture: skipped %d, patterns %d/%d/%d; want one skipped component and all three patterns",
			want.SkippedComponents, want.CountA, want.CountB, want.CountC)
	}
	if len(flowRanges(closedCuts(g))) < 8 {
		t.Fatalf("fixture tiles into %d ranges, too few to occupy 8 workers", len(flowRanges(closedCuts(g))))
	}
	nilRHS := 0
	for _, c := range want.Problem.Constraints {
		if c.RHS == nil {
			nilRHS++
		}
	}
	if nilRHS == 0 || nilRHS == len(want.Problem.Constraints) {
		t.Fatalf("fixture: %d of %d right-hand sides are nil; want some of each", nilRHS, len(want.Problem.Constraints))
	}
	for _, workers := range []int{1, 2, 3, 4, 7, 8, 0} {
		opts := Options{maxComponent: flowFixtureMaxComponent, Workers: workers}
		assertSystemsEqual(t, fmt.Sprintf("Build workers=%d", workers), Build(g, seed, opts), want)

		cache := NewFlowCache()
		cold, st := BuildIncremental(g, seed, opts, spans, cache)
		if st.FellBack || st.SpansRebuilt != len(spans) {
			t.Fatalf("workers=%d: cold incremental build: %+v", workers, st)
		}
		assertSystemsEqual(t, fmt.Sprintf("BuildIncremental cold workers=%d", workers), cold, want)
		warm, st := BuildIncremental(g, seed, opts, spans, cache)
		if st.FellBack || st.SpansReused != len(spans) || st.ConstraintsReused != len(want.Problem.Constraints) {
			t.Fatalf("workers=%d: warm incremental build: %+v", workers, st)
		}
		assertSystemsEqual(t, fmt.Sprintf("BuildIncremental warm workers=%d", workers), warm, want)
	}
}

// TestBuildCountsRepOccurrences pins the pass-1 frequency semantics: a
// representation appearing at several backoff levels of ONE event counts
// once per occurrence, not once per event (class base chains can repeat a
// name). With cutoff 2, a single event repeating "dup()" keeps it; a
// single "once()" occurrence is cut.
func TestBuildCountsRepOccurrences(t *testing.T) {
	gb := new(propgraph.Builder)
	gb.AddEvent(propgraph.KindCall, "t.py", pytoken.Pos{Line: 1},
		[]string{"dup()", "dup()"})
	gb.AddEvent(propgraph.KindCall, "t.py", pytoken.Pos{Line: 2},
		[]string{"once()"})
	g := gb.Build()
	sys := Build(g, spec.New(), Options{BackoffCutoff: 2})
	if sys.VarID("dup()", propgraph.Source) < 0 {
		t.Error("rep repeated within one event must count per occurrence and survive")
	}
	if sys.VarID("once()", propgraph.Source) >= 0 {
		t.Error("single occurrence must be cut off")
	}
	// Both surviving occurrences stay in the backoff list (they average).
	if info := sys.InfoFor(0); info == nil || len(info.RepIDs) != 2 {
		t.Errorf("event 0 info = %+v, want 2 kept occurrences", sys.InfoFor(0))
	}
}

// TestBuildAllocBudget pins the allocation strategy on a ~1k-event corpus
// graph: the build must not allocate per occurrence, per event, per
// component or per constraint.
func TestBuildAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g := corpusGraph(8, 125)
	if len(g.Events) != 1000 {
		t.Fatalf("fixture has %d events", len(g.Events))
	}
	seed := corpusSeed()
	opts := Options{Workers: 1}
	allocs := testing.AllocsPerRun(10, func() { Build(g, seed, opts) })
	// Passes 1-3 contribute only fixed arrays plus the SymIndex; the flow
	// pass reuses one scratch across components and ranges and seals each
	// range (four here) with three allocations. Measured 93; the string
	// path (referenceBuild) measures ~2100 on this fixture, and the flow
	// pass alone cost ~500 while it allocated each constraint's terms.
	if budget := 110.0; allocs > budget {
		t.Errorf("Build allocs/run = %.0f, budget %.0f", allocs, budget)
	}
}

func BenchmarkConstraintsBuild(b *testing.B) {
	g := corpusGraph(8, 125)
	seed := corpusSeed()
	opts := Options{Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(g, seed, opts)
	}
}

// BenchmarkBuildIncrementalWarm is the coordinator's and the session's
// steady state: every span's block comes from the cache.
func BenchmarkBuildIncrementalWarm(b *testing.B) {
	g, spans := flowFixture()
	seed := corpusSeed()
	opts := Options{maxComponent: flowFixtureMaxComponent, Workers: 1}
	cache := NewFlowCache()
	BuildIncremental(g, seed, opts, spans, cache)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildIncremental(g, seed, opts, spans, cache)
	}
}

func BenchmarkConstraintsBuildReference(b *testing.B) {
	g := corpusGraph(8, 125)
	seed := corpusSeed()
	// The string path stored representations by value on the events;
	// materialize them outside the timer so the baseline is not charged
	// for the conversion.
	reps, symOf := prepReference(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		referenceBuild(g, reps, symOf, seed, Options{})
	}
}

// The flow pass as it was before it was tiled and sharded: one goroutine,
// one component after another over the whole graph, terms rebuilt for
// every constraint they appear in, every constraint appended to the
// problem as it is found. referenceBuild ends with it, so the reference
// is independent of Build in all four passes.

// terms builds the backoff-averaged linear terms for an event playing a
// role: the average of its surviving representations' variables (§4.3).
func (s *System) refTerms(info *EventInfo, role propgraph.Role) []lp.Term {
	if info == nil || !info.Roles.Has(role) {
		return nil
	}
	coef := 1.0 / float64(len(info.RepIDs))
	out := make([]lp.Term, 0, len(info.RepIDs))
	for _, sym := range info.RepIDs {
		if id := s.VarIDSym(sym, role); id >= 0 {
			out = append(out, lp.Term{Var: id, Coef: coef})
		}
	}
	return out
}

// candidate role tests over EventInfo.
func (s *System) refIsCand(id int, role propgraph.Role) bool {
	info := s.InfoFor(id)
	return info != nil && info.Roles.Has(role)
}

// refFlowConstraints enumerates the Fig. 4 patterns using per-component
// forward reachability over the (acyclic) propagation graph.
func (s *System) refFlowConstraints(g *propgraph.Graph) {
	n := len(g.Events)
	comp, ncomp := refWeakComponents(g)
	// Bucket events by component with a counting sort. Component IDs are
	// assigned in increasing discovery order and events are scanned in
	// increasing ID order, so both the component iteration order and the
	// event order inside each bucket match the previous sorted-map walk.
	counts := make([]int, ncomp)
	for _, c := range comp {
		counts[c]++
	}
	starts := make([]int, ncomp+1)
	for c, k := range counts {
		starts[c+1] = starts[c] + k
	}
	copy(counts, starts[:ncomp]) // reuse as per-component cursors
	byComp := make([]int, n)
	for id := 0; id < n; id++ {
		c := comp[id]
		byComp[counts[c]] = id
		counts[c]++
	}
	// Each event's index inside its component bucket. Edges never cross
	// weak components, so refBuildComponent can translate any neighbor through
	// this array instead of a per-component map.
	localOf := make([]int32, n)
	for k, id := range byComp {
		localOf[id] = int32(k - starts[comp[id]])
	}
	var sc refFlowScratch
	sc.localOf = localOf
	for c := 0; c < ncomp; c++ {
		events := byComp[starts[c]:starts[c+1]]
		if len(events) < 2 {
			continue
		}
		if len(events) > s.Opts.maxComponent {
			s.SkippedComponents++
			continue
		}
		s.refBuildComponent(g, events, &sc)
	}
}

// refFlowScratch holds buffers reused across refBuildComponent calls so the
// per-component bookkeeping (degrees, topological order, reachability
// bitsets) does not allocate once the largest component has been seen.
type refFlowScratch struct {
	localOf []int32 // event ID -> index within its component bucket
	indeg   []int
	queue   []int
	order   []int
	fwd     []bitset
	words   []uint64 // backing arena for fwd
}

// prep resizes the scratch for a component of m events and returns the
// zeroed indeg slice and bitsets.
func (sc *refFlowScratch) prep(m int) ([]int, []bitset) {
	if cap(sc.indeg) < m {
		sc.indeg = make([]int, m)
		sc.queue = make([]int, 0, m)
		sc.order = make([]int, 0, m)
		sc.fwd = make([]bitset, m)
	}
	indeg := sc.indeg[:m]
	for i := range indeg {
		indeg[i] = 0
	}
	wpb := (m + 63) / 64
	if cap(sc.words) < m*wpb {
		sc.words = make([]uint64, m*wpb)
	}
	words := sc.words[:m*wpb]
	for i := range words {
		words[i] = 0
	}
	fwd := sc.fwd[:m]
	for i := range fwd {
		fwd[i] = bitset(words[i*wpb : (i+1)*wpb])
	}
	return indeg, fwd
}

// refBuildComponent generates constraints inside one component. Neighbor IDs
// translate through sc.localOf: successors and predecessors of a component
// member are, by definition of weak connectivity, members themselves.
func (s *System) refBuildComponent(g *propgraph.Graph, events []int, sc *refFlowScratch) {
	m := len(events)
	indeg, fwd := sc.prep(m)
	// Topological order. Analyzer-built graphs are DAGs; hand-built
	// graphs may contain cycles, in which case the sort is incomplete and
	// reachability falls back to a fixpoint iteration below.
	for _, id := range events {
		for _, dst := range g.Succs(id) {
			indeg[sc.localOf[dst]]++
		}
	}
	queue := sc.queue[:0]
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	order := sc.order[:0]
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		order = append(order, i)
		for _, dst := range g.Succs(events[i]) {
			j := sc.localOf[dst]
			indeg[j]--
			if indeg[j] == 0 {
				queue = append(queue, int(j))
			}
		}
	}

	// Forward reachability bitsets: one reverse-topological pass for DAGs,
	// fixpoint iteration when the component is cyclic (the paper notes the
	// method supports cycles in principle, §5.2).
	if len(order) == m {
		for k := len(order) - 1; k >= 0; k-- {
			i := order[k]
			for _, dst := range g.Succs(events[i]) {
				j := sc.localOf[dst]
				fwd[i].set(int(j))
				fwd[i].or(fwd[j])
			}
		}
	} else {
		for changed := true; changed; {
			changed = false
			for i := 0; i < m; i++ {
				for _, dst := range g.Succs(events[i]) {
					j := sc.localOf[dst]
					if fwd[i].setChanged(int(j)) {
						changed = true
					}
					if fwd[i].orChanged(fwd[j]) {
						changed = true
					}
				}
			}
		}
	}

	// Sources flowing into each sanitizer candidate.
	srcsOf := make(map[int][]int) // local sanitizer index -> local source indices
	for i := 0; i < m; i++ {
		if !s.refIsCand(events[i], propgraph.Source) {
			continue
		}
		fwd[i].refForEach(func(j int) {
			if s.refIsCand(events[j], propgraph.Sanitizer) {
				srcsOf[j] = append(srcsOf[j], i)
			}
		})
	}

	addConstraint := func(lhs, rhs []lp.Term, kind *int) {
		if len(lhs) == 0 {
			return
		}
		s.Problem.Constraints = append(s.Problem.Constraints, lp.Constraint{LHS: lhs, RHS: rhs})
		*kind++
	}

	for i := 0; i < m; i++ {
		ei := events[i]
		switch {
		case s.refIsCand(ei, propgraph.Sanitizer):
			sanTerms := s.refTerms(s.InfoFor(ei), propgraph.Sanitizer)
			// Sinks reachable from this sanitizer.
			var sinks []int
			fwd[i].refForEach(func(j int) {
				if s.refIsCand(events[j], propgraph.Sink) {
					sinks = append(sinks, j)
				}
			})
			srcs := srcsOf[i]

			// Fig. 4a: san(i) + snk(t) <= Σ src(u) + C, per sink t.
			var srcSum []lp.Term
			for _, u := range srcs {
				srcSum = append(srcSum, s.refTerms(s.InfoFor(events[u]), propgraph.Source)...)
			}
			for _, t := range sinks {
				lhs := append(append([]lp.Term(nil), sanTerms...),
					s.refTerms(s.InfoFor(events[t]), propgraph.Sink)...)
				addConstraint(lhs, srcSum, &s.CountA)
			}

			// Fig. 4b: src(u) + san(i) <= Σ snk(t) + C, per source u.
			var snkSum []lp.Term
			for _, t := range sinks {
				snkSum = append(snkSum, s.refTerms(s.InfoFor(events[t]), propgraph.Sink)...)
			}
			for _, u := range srcs {
				lhs := append(append([]lp.Term(nil),
					s.refTerms(s.InfoFor(events[u]), propgraph.Source)...), sanTerms...)
				addConstraint(lhs, snkSum, &s.CountB)
			}
		}

		// Fig. 4c: src(i) + snk(t) <= Σ san(s on some i→t path) + C.
		if s.refIsCand(ei, propgraph.Source) {
			srcTerms := s.refTerms(s.InfoFor(ei), propgraph.Source)
			var sanMid []int
			fwd[i].refForEach(func(j int) {
				if s.refIsCand(events[j], propgraph.Sanitizer) {
					sanMid = append(sanMid, j)
				}
			})
			fwd[i].refForEach(func(t int) {
				if !s.refIsCand(events[t], propgraph.Sink) {
					return
				}
				var sanSum []lp.Term
				for _, sMid := range sanMid {
					if fwd[sMid].has(t) {
						sanSum = append(sanSum,
							s.refTerms(s.InfoFor(events[sMid]), propgraph.Sanitizer)...)
					}
				}
				lhs := append(append([]lp.Term(nil), srcTerms...),
					s.refTerms(s.InfoFor(events[t]), propgraph.Sink)...)
				addConstraint(lhs, sanSum, &s.CountC)
			})
		}
	}
}

// refWeakComponents labels each event with a weakly-connected-component ID,
// returning the labels and the number of components.
func refWeakComponents(g *propgraph.Graph) ([]int, int) {
	n := len(g.Events)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	var stack []int
	for start := 0; start < n; start++ {
		if comp[start] >= 0 {
			continue
		}
		comp[start] = next
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, nb := range g.Succs(id) {
				if comp[nb] < 0 {
					comp[nb] = next
					stack = append(stack, nb)
				}
			}
			for _, nb := range g.Preds(id) {
				if comp[nb] < 0 {
					comp[nb] = next
					stack = append(stack, nb)
				}
			}
		}
		next++
	}
	return comp, next
}

// refForEach calls f with every set bit index, ascending.
func (b bitset) refForEach(f func(i int)) {
	for w, word := range b {
		for word != 0 {
			bit := word & (-word)
			f(w*64 + bits.TrailingZeros64(bit))
			word ^= bit
		}
	}
}

// TestBuildIncrementalRecordsBlocks: the incremental build says which
// span each run of constraints came from, under a key that changes when,
// and only when, the run's constraints may; the cold build and the
// fallback say nothing.
func TestBuildIncrementalRecordsBlocks(t *testing.T) {
	g, spans := flowFixture()
	seed := corpusSeed()
	opts := Options{maxComponent: flowFixtureMaxComponent, Workers: 2}
	if b := Build(g, seed, opts).Problem.Blocks; b != nil {
		t.Fatalf("Build recorded %d blocks", len(b))
	}
	cache := NewFlowCache()
	sys, _ := BuildIncremental(g, seed, opts, spans, cache)
	blocks := sys.Problem.Blocks
	if len(blocks) != len(spans) {
		t.Fatalf("%d blocks for %d spans", len(blocks), len(spans))
	}
	// Each block is exactly what a build of its span alone would emit.
	at, keys := 0, map[[32]byte][]lp.Constraint{}
	for i, b := range blocks {
		run := sys.Problem.Constraints[at : at+b.N]
		at += b.N
		if b.Key == ([32]byte{}) {
			t.Fatalf("block %d has no key", i)
		}
		if other, ok := keys[b.Key]; ok && !reflect.DeepEqual(other, run) {
			t.Fatalf("block %d shares its key with a different run", i)
		}
		keys[b.Key] = run
	}
	if at != len(sys.Problem.Constraints) {
		t.Fatalf("blocks cover %d of %d constraints", at, len(sys.Problem.Constraints))
	}
	again, st := BuildIncremental(g, seed, opts, spans, cache)
	if st.SpansReused != len(spans) || !reflect.DeepEqual(again.Problem.Blocks, blocks) {
		t.Fatalf("warm build: %+v, blocks equal: %v", st, reflect.DeepEqual(again.Problem.Blocks, blocks))
	}
	// Spans that do not tile the graph: full build, no blocks.
	fell, st := BuildIncremental(g, seed, opts, spans[1:], cache)
	if !st.FellBack || fell.Problem.Blocks != nil {
		t.Fatalf("fallback: %+v, %d blocks", st, len(fell.Problem.Blocks))
	}
}
