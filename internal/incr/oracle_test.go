package incr_test

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"seldon/internal/constraints"
	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/incr"
	"seldon/internal/lp"
	"seldon/internal/propgraph"
	"seldon/internal/pyparse"
	"seldon/internal/pytoken"
	"seldon/internal/spec"
	"seldon/internal/specio"
)

// oracle checks a session against the one-shot public functions after
// every Relearn. It keeps nothing of the session's but the previous
// solution (what the next warm start is made from) and a copy of the
// pins; the files it reads back from the session as encoded bytes.
type oracle struct {
	s    *incr.Session
	seed *spec.Spec
	pins map[incr.PinKey]float64
	prev map[incr.PinKey]float64
}

func newOracle(seed *spec.Spec, cfg core.Config) *oracle {
	return &oracle{s: incr.NewSession(seed, cfg), seed: seed, pins: map[incr.PinKey]float64{}}
}

func (o *oracle) pin(rep string, role propgraph.Role, val float64) {
	if o.s.Pin(rep, role, val) {
		o.pins[incr.PinKey{Rep: rep, Role: role}] = val
	}
}

func (o *oracle) unpin(rep string, role propgraph.Role) {
	o.s.Unpin(rep, role)
	delete(o.pins, incr.PinKey{Rep: rep, Role: role})
}

// relearn re-learns in the session and holds the result against its three
// contracts: the union is propgraph.Union of the current files — the
// encoded bytes and, beyond them, event IDs and predecessor lists — the
// system is constraints.Build on it, and the solution is bit for bit
// lp.Minimize's from the same warm start with no row table.
func (o *oracle) relearn(label string) (incr.RelearnStats, error) {
	res, st := o.s.Relearn()

	names := o.s.Files()
	graphs := make([]*propgraph.Graph, len(names))
	for i, n := range names {
		g, rest, err := propgraph.DecodeBinary(o.s.EncodedGraph(n))
		if err != nil || len(rest) != 0 {
			return st, fmt.Errorf("%s: stored graph of %s: %v (%d bytes left)", label, n, err, len(rest))
		}
		graphs[i] = g
	}
	want := propgraph.Union(graphs...)
	if err := sameUnion(res.Graph, want); err != nil {
		return st, fmt.Errorf("%s: session union (%s): %w", label, st.UnionRebuilt, err)
	}

	sys := constraints.Build(want, o.seed, constraints.Options{Workers: 1})
	if !reflect.DeepEqual(res.System.Vars, sys.Vars) ||
		!reflect.DeepEqual(res.System.Problem.Constraints, sys.Problem.Constraints) ||
		!reflect.DeepEqual(res.System.EventInfos, sys.EventInfos) ||
		res.System.Problem.NumVars != sys.Problem.NumVars {
		return st, fmt.Errorf("%s: session system (%d vars, %d constraints) differs from Build's (%d, %d)", label,
			len(res.System.Vars), len(res.System.Problem.Constraints), len(sys.Vars), len(sys.Problem.Constraints))
	}
	for k, val := range o.pins {
		if id := sys.VarID(k.Rep, k.Role); id >= 0 {
			sys.Problem.Pin(id, val)
		}
	}
	if !reflect.DeepEqual(res.System.Problem.Known, sys.Problem.Known) {
		return st, fmt.Errorf("%s: session pins %v, want %v", label, res.System.Problem.Known, sys.Problem.Known)
	}

	var opts lp.Options
	if o.prev != nil {
		opts.WarmStart = make([]float64, len(sys.Vars))
		for i, v := range sys.Vars {
			opts.WarmStart[i] = o.prev[incr.PinKey{Rep: v.Rep, Role: v.Role}]
		}
		opts.Patience = 25
	}
	if st.WarmStarted != (o.prev != nil) {
		return st, fmt.Errorf("%s: warm start %v, want %v", label, st.WarmStarted, o.prev != nil)
	}
	sol := lp.Minimize(sys.Problem, opts)
	if res.SolverEpochs != sol.Iterations || len(res.Solution) != len(sol.X) {
		return st, fmt.Errorf("%s: session solved %d variables in %d epochs, one-shot %d in %d", label,
			len(res.Solution), res.SolverEpochs, len(sol.X), sol.Iterations)
	}
	o.prev = make(map[incr.PinKey]float64, len(sys.Vars))
	for i, v := range sys.Vars {
		if math.Float64bits(res.Solution[i]) != math.Float64bits(sol.X[i]) {
			return st, fmt.Errorf("%s: solution[%d] (%s as %v) = %v, one-shot %v", label, i, v.Rep, v.Role, res.Solution[i], sol.X[i])
		}
		o.prev[incr.PinKey{Rep: v.Rep, Role: v.Role}] = sol.X[i]
	}
	if st.RowsReused > len(sys.Problem.Constraints) || st.Files != len(names) {
		return st, fmt.Errorf("%s: stats %+v for %d files, %d constraints", label, st, len(names), len(sys.Problem.Constraints))
	}
	return st, nil
}

// sameUnion compares two unions through the exported surface: the binary
// encoding (symbol table, events, successors, labels) and what it leaves
// out — representations read by ID, predecessors, label lookup by
// endpoint.
func sameUnion(got, want *propgraph.Graph) error {
	if !bytes.Equal(got.AppendBinary(nil), want.AppendBinary(nil)) {
		return fmt.Errorf("binary encoding differs (%d events, want %d)", len(got.Events), len(want.Events))
	}
	for id := range want.Events {
		if !slices.Equal(got.Reps(id), want.Reps(id)) {
			return fmt.Errorf("event %d has reps %v; want reps %v", id, got.Reps(id), want.Reps(id))
		}
		if !slices.Equal(got.Succs(id), want.Succs(id)) || !slices.Equal(got.Preds(id), want.Preds(id)) {
			return fmt.Errorf("event %d: succs %v preds %v, want %v %v", id, got.Succs(id), got.Preds(id), want.Succs(id), want.Preds(id))
		}
		for _, dst := range want.Succs(id) {
			if !slices.Equal(got.EdgeArgs(id, dst), want.EdgeArgs(id, dst)) {
				return fmt.Errorf("labels of %d->%d: %v, want %v", id, dst, got.EdgeArgs(id, dst), want.EdgeArgs(id, dst))
			}
		}
	}
	return nil
}

// tinySeed labels three of the names tiny graphs are made of.
func tinySeed() *spec.Spec {
	s := spec.New()
	s.Add(propgraph.Source, "pkg.src()")
	s.Add(propgraph.Sanitizer, "pkg.san()")
	s.Add(propgraph.Sink, "pkg.snk()")
	return s
}

var tinyPool = []string{"src()", "san()", "snk()", "a()", "b()", "c()", "d()", "x()"}

// chain is a file whose events call the given names in order, each
// flowing into the next; with labels every edge carries some.
func chain(file string, labels bool, names ...string) *propgraph.Graph {
	gb := new(propgraph.Builder)
	for i, n := range names {
		gb.AddEvent(propgraph.KindCall, file, pytoken.Pos{Line: i + 1}, []string{"pkg." + n, n})
	}
	for i := 0; i+1 < len(names); i++ {
		switch {
		case !labels:
			gb.AddEdge(i, i+1)
		case i%2 == 0:
			gb.AddEdgeArg(i, i+1, i%3)
		default:
			gb.AddEdgeArg(i, i+1, propgraph.ArgReceiver)
			gb.AddEdgeArg(i, i+1, propgraph.ArgKeyword)
		}
	}
	if len(names) > 2 {
		gb.AddEdge(0, len(names)-1)
	}
	return gb.Build()
}

// tinyGraph is a small graph drawn from shape: zero to six events over
// the pool's names and now and then a rare one, chained with labeled and
// unlabeled edges.
func tinyGraph(file string, shape uint32) *propgraph.Graph {
	rng := rand.New(rand.NewSource(int64(shape)))
	gb := new(propgraph.Builder)
	n := rng.Intn(7)
	for i := 0; i < n; i++ {
		name := tinyPool[rng.Intn(len(tinyPool))]
		if rng.Intn(5) == 0 {
			name = fmt.Sprintf("rare%d()", rng.Intn(6))
		}
		kind := propgraph.KindCall
		if rng.Intn(6) == 0 {
			kind = propgraph.KindRead
		}
		gb.AddEvent(kind, file, pytoken.Pos{Line: i + 1}, []string{"pkg." + name, name})
	}
	for i := 0; i+1 < n; i++ {
		switch rng.Intn(3) {
		case 0:
			gb.AddEdge(i, i+1)
		case 1:
			gb.AddEdgeArg(i, i+1, rng.Intn(3))
		default:
			gb.AddEdgeArg(i, i+1, propgraph.ArgReceiver)
			gb.AddEdgeArg(i, i+1, propgraph.ArgKeyword)
		}
	}
	if n > 2 && rng.Intn(2) == 0 {
		gb.AddEdge(0, n-1)
	}
	return gb.Build()
}

// forEachParallelism runs f at GOMAXPROCS {1, 2, 4} × workers {1, 4}.
func forEachParallelism(t *testing.T, f func(t *testing.T, cfg core.Config)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		for _, workers := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			t.Run(fmt.Sprintf("procs%d-workers%d", procs, workers), func(t *testing.T) {
				f(t, core.Config{Workers: workers})
			})
		}
	}
}

// TestEditSequenceOracle walks a session through every kind of edit and
// after each Relearn holds it against the three contracts of
// oracle.relearn, together with whether the union was patched or why not.
func TestEditSequenceOracle(t *testing.T) {
	all := append([]string(nil), tinyPool...)
	swapped := append([]string(nil), tinyPool...)
	swapped[5], swapped[6] = swapped[6], swapped[5] // c() and d(), which no file before f00 ever mentions
	forEachParallelism(t, func(t *testing.T, cfg core.Config) {
		o := newOracle(tinySeed(), cfg)
		s := o.s
		// f00 mentions every name, so it introduces every symbol; the
		// others mention three or four each.
		s.Splice("f00.py", chain("f00.py", true, all...))
		for i := 1; i < 12; i++ {
			var names []string
			for k := 0; k < 3+i%2; k++ {
				names = append(names, tinyPool[(i*3+k*2)%len(tinyPool)])
			}
			s.Splice(fmt.Sprintf("f%02d.py", i), chain(fmt.Sprintf("f%02d.py", i), i%3 == 0, names...))
		}
		type step struct {
			name    string
			edit    func()
			union   string // UnionRebuilt
			changed int
		}
		decode := func(name string) *propgraph.Graph {
			g, _, err := propgraph.DecodeBinary(s.EncodedGraph(name))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		steps := []step{
			{"first", func() {}, "first", 12},
			{"nothing", func() {}, "", 0},
			{"replace same size", func() { s.Splice("f05.py", chain("f05.py", false, "d()", "x()", "src()", "a()")) }, "", 1},
			{"replace larger", func() { s.Splice("f05.py", chain("f05.py", false, "d()", "x()", "src()", "a()", "snk()", "san()")) }, "", 1},
			{"replace smaller", func() { s.Splice("f05.py", chain("f05.py", false, "snk()")) }, "", 1},
			{"insert first", func() { s.Splice("a.py", chain("a.py", false, "src()", "a()", "snk()")) }, "numbering", 1},
			{"insert first, no symbols", func() { s.Splice("_.py", new(propgraph.Builder).Build()) }, "", 1},
			{"insert last, new symbol", func() { s.Splice("z.py", chain("z.py", true, "src()", "last()", "snk()")) }, "", 1},
			{"insert middle", func() { s.Splice("f05a.py", chain("f05a.py", true, "src()", "b()", "san()", "snk()")) }, "", 1},
			{"retract middle", func() { s.Retract("f07.py") }, "", 1},
			{"rename", func() { g := decode("f03.py"); s.Retract("f03.py"); s.Splice("f03b.py", g) }, "", 2},
			{"empty file", func() { s.Splice("f06a.py", new(propgraph.Builder).Build()) }, "", 1},
			{"empty file filled", func() { s.Splice("f06a.py", chain("f06a.py", true, "a()", "b()", "c()", "d()")) }, "", 1},
			{"file emptied", func() { s.Splice("f04.py", new(propgraph.Builder).Build()) }, "", 1},
			{"introducer, same symbols", func() { s.Splice("f00.py", chain("f00.py", false, append(all, "src()", "x()")...)) }, "", 1},
			{"introducer reorders", func() { s.Splice("f00.py", chain("f00.py", true, swapped...)) }, "numbering", 1},
			{"introducer loses one", func() { s.Splice("f00.py", chain("f00.py", true, swapped[:len(swapped)-1]...)) }, "numbering", 1},
			{"introducer gains one", func() {
				s.Splice("f00.py", chain("f00.py", true, append(swapped[:len(swapped)-1:len(swapped)-1], "gain()", "x()")...))
			}, "numbering", 1},
			{"labels change", func() { s.Splice("f09.py", chain("f09.py", false, "c()", "b()", "x()")) }, "", 1},
			{"labels appear", func() { s.Splice("f10.py", chain("f10.py", true, "c()", "b()", "x()", "snk()")) }, "", 1},
			{"six at once", func() {
				s.Retract("_.py")
				s.Splice("f01.py", chain("f01.py", true, "src()", "c()", "snk()"))
				s.Splice("f02.py", chain("f02.py", false, "src()", "san()", "d()", "snk()", "a()"))
				s.Splice("f02a.py", chain("f02a.py", true, "x()", "snk()"))
				s.Retract("f11.py")
				s.Splice("f08.py", new(propgraph.Builder).Build())
			}, "", 6},
			{"spliced twice", func() {
				s.Splice("f08.py", chain("f08.py", true, "a()", "snk()"))
				s.Splice("f08.py", chain("f08.py", true, "src()", "a()", "snk()"))
			}, "", 1},
			{"retract last, its symbol goes", func() { s.Retract("z.py") }, "numbering", 1},
			{"pin", func() { o.pin("pkg.a()", propgraph.Sink, 1); o.pin("nowhere()", propgraph.Source, 1) }, "", 0},
			{"unpin and edit", func() {
				o.unpin("pkg.a()", propgraph.Sink)
				s.Splice("f05.py", chain("f05.py", true, "src()", "a()", "b()", "snk()"))
			}, "", 1},
			{"retract everything", func() {
				for _, n := range s.Files() {
					s.Retract(n)
				}
			}, "numbering", 14},
			{"start over", func() { s.Splice("n.py", chain("n.py", true, "src()", "snk()")) }, "", 1},
		}
		for _, st := range steps {
			before := len(s.Files())
			st.edit()
			got, err := o.relearn(st.name)
			if err != nil {
				t.Fatal(err)
			}
			if got.UnionRebuilt != st.union || got.FilesChanged != st.changed {
				t.Fatalf("%s: union %q with %d files changed (%d files before, %d after), want %q with %d",
					st.name, got.UnionRebuilt, got.FilesChanged, before, got.Files, st.union, st.changed)
			}
		}
	})
}

// TestRandomEditsOracle is the benchmark's edit on a corpus large enough
// for the union copy and the flow pass to fan out: 300 files, six of them
// flipped to another corpus's file of the same name at every step, and
// the three contracts after every one of 50 re-learns (12 under -race,
// where the oracle's own from-scratch build is what takes the time).
//
// A corpus this small has its few hundred symbols introduced by a third
// of its files, so nearly every six-file edit renumbers some and the
// union is rebuilt (98 of 100, against 14 of 100 at 6000 files): that is
// the first 20 edits. Before the other 30 a file that sorts first and
// holds every graph of both corpora is spliced in; from then on no edit
// introduces anything, every one is patched, and the dead space they
// leave is compacted a few times.
//
// Between the two stretches come the edits that move names: an identical
// re-splice, a file that does not parse, a retraction, a rename, the
// broken file's retraction and a save and LoadDir. After every edit and
// every re-learn the session's file list, corpus fingerprint and
// parse-error files must equal their recomputation from the corpus the
// test has spliced.
func TestRandomEditsOracle(t *testing.T) {
	ca := corpus.Generate(corpus.Config{Files: 300, Seed: 11})
	cb := corpus.Generate(corpus.Config{Files: 300, Seed: 12})
	a, b := ca.Files, cb.Files
	a = a[:min(len(a), len(b))]
	plain, stable := 20, 30
	if raceEnabled || testing.Short() {
		plain, stable = 4, 8
	}
	const broken = "broken.py"
	forEachParallelism(t, func(t *testing.T, cfg core.Config) {
		o := newOracle(corpus.ExperimentSeed(), cfg)
		m := newCorpusModel()
		for _, f := range a {
			m.splice(o.s, f.Name, f.Source)
		}
		relearn := func(label string) incr.RelearnStats {
			t.Helper()
			m.check(t, o.s, label)
			st, err := o.relearn(label)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := o.s.Result().ParseErrorFiles, m.parseErrorFiles(); !slices.Equal(got, want) {
				t.Fatalf("%s: ParseErrorFiles %q, want %q", label, got, want)
			}
			m.check(t, o.s, label+", re-learned")
			return st
		}
		relearn("first")
		rng := rand.New(rand.NewSource(3))
		onB := make([]bool, len(a))
		reasons := map[string]int{}
		flip := func(label string) {
			for _, i := range rng.Perm(len(a))[:6] {
				onB[i] = !onB[i]
				src := a[i].Source
				if onB[i] {
					src = b[i].Source
				}
				m.splice(o.s, a[i].Name, src)
			}
			st := relearn(label)
			if st.FilesChanged != 6 {
				t.Fatalf("%s: %d files changed", label, st.FilesChanged)
			}
			reasons[st.UnionRebuilt]++
		}
		for e := 0; e < plain; e++ {
			flip(fmt.Sprintf("edit %d", e))
		}

		perm := rng.Perm(len(a))
		for _, i := range perm[:6] {
			m.splice(o.s, a[i].Name, m.src[a[i].Name])
		}
		if st := relearn("identical re-splice"); st.FilesChanged != 0 {
			t.Fatalf("identical re-splice: %d files changed", st.FilesChanged)
		}
		m.splice(o.s, broken, "def broken(:\n    return request.args.get('x')\n")
		relearn("parse error")
		for _, i := range perm[6:9] {
			m.retract(o.s, a[i].Name)
		}
		relearn("retract")
		renamed := a[perm[9]].Name
		src := m.src[renamed]
		m.retract(o.s, renamed)
		m.splice(o.s, renamed+".renamed.py", src)
		relearn("rename")
		m.retract(o.s, broken)
		relearn("parse error fixed")
		dir := t.TempDir()
		if err := o.s.SaveDir(dir); err != nil {
			t.Fatal(err)
		}
		loaded, err := incr.LoadDir(dir, o.seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		o.s = loaded
		relearn("LoadDir")

		var every []*propgraph.Graph
		for _, c := range []*corpus.Corpus{ca, cb} {
			fe := core.AnalyzeFiles(c.FileMap(), core.Config{Workers: 1})
			every = append(every, fe.Graphs...)
		}
		o.s.Splice("!vocabulary", propgraph.Union(every...))
		m.graphOnly("!vocabulary")
		relearn("vocabulary")
		clear(reasons)
		for e := 0; e < stable; e++ {
			flip(fmt.Sprintf("stable edit %d", e))
		}
		if reasons["numbering"] != 0 || reasons[""] < stable*2/3 || (stable >= 30 && reasons["compaction"] == 0) {
			t.Fatalf("with every symbol introduced up front, %d edits went %v", stable, reasons)
		}
	})
}

// corpusModel is the corpus a test has spliced into a session, kept
// beside it: each file's source, or none for a file spliced as a graph,
// and whether the source parses.
type corpusModel struct {
	src    map[string]string
	graph  map[string]bool
	broken map[string]bool
}

func newCorpusModel() *corpusModel {
	return &corpusModel{src: map[string]string{}, graph: map[string]bool{}, broken: map[string]bool{}}
}

func (m *corpusModel) splice(s *incr.Session, name, src string) {
	s.SpliceSource(name, src)
	_, err := pyparse.Parse(name, src)
	m.src[name], m.broken[name] = src, err != nil
	delete(m.graph, name)
}

func (m *corpusModel) graphOnly(name string) {
	delete(m.src, name)
	delete(m.broken, name)
	m.graph[name] = true
}

func (m *corpusModel) retract(s *incr.Session, name string) {
	s.Retract(name)
	delete(m.src, name)
	delete(m.broken, name)
	delete(m.graph, name)
}

func (m *corpusModel) parseErrorFiles() []string {
	var names []string
	for n, bad := range m.broken {
		if bad {
			names = append(names, n)
		}
	}
	slices.Sort(names)
	return names
}

// check requires the session's file list and corpus fingerprint to be
// recomputed from the model: its names sorted, and specio.Fingerprint of
// its sources, or none once a file came as a graph.
func (m *corpusModel) check(t *testing.T, s *incr.Session, label string) {
	t.Helper()
	names := slices.Sorted(maps.Keys(m.src))
	for n := range m.graph {
		names = append(names, n)
	}
	slices.Sort(names)
	if got := s.Files(); !slices.Equal(got, names) {
		t.Fatalf("%s: session holds %d files, the model %d", label, len(got), len(names))
	}
	want := specio.Fingerprint(m.src)
	if len(m.graph) > 0 {
		want = ""
	}
	if got := s.CorpusFingerprint(); got != want {
		t.Fatalf("%s: corpus fingerprint %q, want %q", label, got, want)
	}
}
