package propgraph

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"seldon/internal/pytoken"
)

// naiveUnion replicates the original event-by-event, edge-by-edge union:
// every event re-added to a Builder through AddEvent (re-interning its
// representation strings into the output's table), every edge through
// AddEdge, every label through AddEdgeArg. The symbol-translating Union
// must stay byte-identical to it.
func naiveUnion(graphs ...*Graph) *Graph {
	b := NewBuilder()
	var roles []RoleSet
	for _, g := range graphs {
		base := b.Len()
		for id, e := range g.Events {
			b.AddEvent(e.Kind, g.File(id), e.Pos, g.Reps(id))
			roles = append(roles, e.Roles)
		}
		for src := range g.Events {
			for _, dst := range g.Succs(src) {
				b.AddEdge(base+src, base+dst)
			}
		}
		for key, args := range g.edgeArgs {
			for _, a := range args {
				b.AddEdgeArg(base+int(key>>32), base+int(uint32(key)), a)
			}
		}
	}
	out := b.Build()
	for id := range out.Events {
		out.Events[id].Roles = roles[id]
	}
	return out
}

// pseudoBuilder adds to a builder a deterministic graph with irregular
// fan-in/fan-out, labeled edges, and some isolated vertices.
func pseudoBuilder(seed, nEvents int) *Builder {
	g := NewBuilder()
	kinds := []EventKind{KindCall, KindRead, KindParam}
	for i := 0; i < nEvents; i++ {
		reps := []string{fmt.Sprintf("g%d.f%d", seed, i)}
		if i%3 == 0 {
			reps = append(reps, fmt.Sprintf("f%d", i))
		}
		g.AddEvent(kinds[(seed+i)%len(kinds)], fmt.Sprintf("g%d.py", seed),
			pytoken.Pos{Line: i + 1}, reps)
	}
	for i := 0; i < nEvents*3; i++ {
		src := (seed*31 + i*13) % nEvents
		dst := (seed*17 + i*7 + 1) % nEvents
		switch i % 4 {
		case 0:
			g.AddEdge(src, dst)
		case 1:
			g.AddEdgeArg(src, dst, i%5)
		case 2:
			g.AddEdgeArg(src, dst, ArgReceiver)
		default:
			// Duplicate an earlier edge to exercise dedup in the naive path.
			g.AddEdge(dst, src)
			g.AddEdge(dst, src)
		}
	}
	return g
}

func pseudoGraph(seed, nEvents int) *Graph { return pseudoBuilder(seed, nEvents).Build() }

func TestUnionMatchesAddEdgeUnion(t *testing.T) {
	empty := NewBuilder().Build()
	cases := [][]*Graph{
		{},
		{empty},
		{pseudoGraph(1, 12)},
		{pseudoGraph(1, 12), empty, pseudoGraph(2, 7)},
		{pseudoGraph(3, 40), pseudoGraph(4, 25), pseudoGraph(5, 1), pseudoGraph(6, 33)},
	}
	for ci, graphs := range cases {
		got := Union(graphs...)
		want := naiveUnion(graphs...)
		if len(got.Events) != len(want.Events) {
			t.Fatalf("case %d: %d events, want %d", ci, len(got.Events), len(want.Events))
		}
		for id := range want.Events {
			ge, we := got.Events[id], want.Events[id]
			if ge.Kind != we.Kind || got.File(id) != want.File(id) ||
				ge.Pos != we.Pos || ge.Roles != we.Roles ||
				!reflect.DeepEqual(got.RepIDs(id), want.RepIDs(id)) ||
				!reflect.DeepEqual(got.Reps(id), want.Reps(id)) {
				t.Fatalf("case %d: event %d = %+v (reps %v), want %+v (reps %v)",
					ci, id, ge, got.Reps(id), we, want.Reps(id))
			}
			if !reflect.DeepEqual(got.Succs(id), want.Succs(id)) {
				t.Fatalf("case %d: succs(%d) = %v, want %v", ci, id, got.Succs(id), want.Succs(id))
			}
			if !reflect.DeepEqual(got.Preds(id), want.Preds(id)) {
				t.Fatalf("case %d: preds(%d) = %v, want %v", ci, id, got.Preds(id), want.Preds(id))
			}
			for _, dst := range want.Succs(id) {
				if !reflect.DeepEqual(got.EdgeArgs(id, dst), want.EdgeArgs(id, dst)) {
					t.Fatalf("case %d: edgeArgs(%d,%d) = %v, want %v",
						ci, id, dst, got.EdgeArgs(id, dst), want.EdgeArgs(id, dst))
				}
			}
		}
		var gotBuf, wantBuf bytes.Buffer
		if err := got.Encode(&gotBuf); err != nil {
			t.Fatalf("case %d: encode: %v", ci, err)
		}
		if err := want.Encode(&wantBuf); err != nil {
			t.Fatalf("case %d: encode naive: %v", ci, err)
		}
		if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
			t.Fatalf("case %d: encodings differ", ci)
		}
		// The binary codec leads with the symbol table, so this also pins
		// that symbol translation assigns the exact IDs re-interning would.
		if !bytes.Equal(got.AppendBinary(nil), want.AppendBinary(nil)) {
			t.Fatalf("case %d: binary encodings differ", ci)
		}
	}
}

// TestUnionAllocBudget pins the arena allocation strategy: merging a
// ~1k-event dataset costs the union's fixed tables and blocks, one
// translation array per input and the growth of the symbol table — not an
// allocation per event, edge or label.
func TestUnionAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	graphs := make([]*Graph, 8)
	nEvents := 0
	for i := range graphs {
		graphs[i] = pseudoGraph(i, 125)
		nEvents += len(graphs[i].Events)
	}
	if nEvents < 1000 {
		t.Fatalf("fixture too small: %d events", nEvents)
	}
	allocs := testing.AllocsPerRun(10, func() { Union(graphs...) })
	t.Logf("Union of %d events: %.0f allocs", nEvents, allocs)
	// Measured 63: most of it is the symbol table growing to the ~1.3k
	// distinct symbols of the inputs. It was 78 while every label went
	// through AddEdgeArg, and 65 before graphs were flat arrays.
	if budget := 70.0; allocs > budget {
		t.Errorf("Union allocs/run = %.0f, budget %.0f", allocs, budget)
	}
}

func BenchmarkUnion(b *testing.B) {
	graphs := make([]*Graph, 64)
	events := 0
	for i := range graphs {
		graphs[i] = pseudoGraph(i, 120)
		events += len(graphs[i].Events)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Union(graphs...)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	perEvent := float64(b.N) * float64(events)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/perEvent, "allocs/event")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/perEvent, "B/event")
}

func BenchmarkUnionNaive(b *testing.B) {
	graphs := make([]*Graph, 64)
	for i := range graphs {
		graphs[i] = pseudoGraph(i, 120)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveUnion(graphs...)
	}
}

// labelledGraph is pseudoGraph with every label shape the analyzer
// emits: positional, receiver and keyword labels, and edges carrying
// several labels at once.
func labelledGraph(seed, nEvents int) *Graph {
	g := pseudoBuilder(seed, nEvents)
	for i := 0; i+1 < nEvents; i += 2 {
		src, dst := i, (i+1+seed)%nEvents
		g.AddEdgeArg(src, dst, ArgKeyword)
		if i%4 == 0 {
			g.AddEdgeArg(src, dst, 2)
			g.AddEdgeArg(src, dst, ArgReceiver)
			g.AddEdgeArg(src, dst, 0)
		}
	}
	return g.Build()
}

// TestUnionParallelMatchesSequential pins the one copy routine at every
// parallelism: Union, a UnionBuilder fed one input at a time and the
// AddEdge-based oracle must encode to the same bytes at GOMAXPROCS 1, 2
// and 4 — over no inputs, one input, empty inputs between labelled ones,
// and enough events to cross the fan-out threshold.
func TestUnionParallelMatchesSequential(t *testing.T) {
	var big []*Graph
	events := 0
	for i := 0; events <= 2*unionFanoutEvents; i++ {
		g := labelledGraph(i, 40+i%90)
		if i%17 == 3 {
			g = NewBuilder().Build()
		}
		big = append(big, g)
		events += len(g.Events)
	}
	empty := NewBuilder().Build()
	cases := map[string][]*Graph{
		"none":      {},
		"empty":     {empty},
		"one":       {labelledGraph(1, 30)},
		"one-big":   {labelledGraph(2, unionFanoutEvents+10)},
		"small":     {labelledGraph(1, 12), empty, labelledGraph(2, 7), empty},
		"fanned":    big,
		"two-heavy": {labelledGraph(3, unionFanoutEvents), labelledGraph(4, 5)},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, graphs := range cases {
		want := naiveUnion(graphs...).AppendBinary(nil)
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			if got := Union(graphs...).AppendBinary(nil); !bytes.Equal(got, want) {
				t.Errorf("%s, GOMAXPROCS=%d: Union differs from the AddEdge oracle", name, procs)
			}
			b := NewUnionBuilder()
			for _, g := range graphs {
				b.Add(g)
			}
			if got := b.Graph().AppendBinary(nil); !bytes.Equal(got, want) {
				t.Errorf("%s, GOMAXPROCS=%d: UnionBuilder differs from the AddEdge oracle", name, procs)
			}
		}
	}
}

// poolGraph is a labelled graph whose representations all come from a
// pool of nPool shared names, in an order that depends on seed: the kind
// of input a corpus file is, introducing no symbol of its own once an
// earlier input has brought the pool.
func poolGraph(seed, nEvents, nPool int) *Graph {
	g := NewBuilder()
	kinds := []EventKind{KindCall, KindRead, KindParam}
	for i := 0; i < nEvents; i++ {
		reps := []string{fmt.Sprintf("api%d()", (seed*7+i*3)%nPool)}
		if i%3 == 0 {
			reps = append(reps, fmt.Sprintf("api%d()", (seed+i)%nPool))
		}
		g.AddEvent(kinds[(seed+i)%len(kinds)], fmt.Sprintf("p%d.py", seed), pytoken.Pos{Line: i + 1}, reps)
	}
	for i := 0; i < nEvents*2; i++ {
		src, dst := (seed*5+i*11)%nEvents, (seed*3+i*7+1)%nEvents
		switch i % 3 {
		case 0:
			g.AddEdge(src, dst)
		case 1:
			g.AddEdgeArg(src, dst, i%4)
		default:
			g.AddEdgeArg(src, dst, ArgKeyword)
			g.AddEdgeArg(src, dst, ArgReceiver)
		}
	}
	return g.Build()
}

// poolIntroBuilder adds to a builder an input that mentions every name of the
// pool, in order.
func poolIntroBuilder(nPool int, order func(i int) int) *Builder {
	g := NewBuilder()
	for i := 0; i < nPool; i++ {
		g.AddEvent(KindCall, "intro.py", pytoken.Pos{Line: i + 1}, []string{fmt.Sprintf("api%d()", order(i))})
	}
	g.AddEdgeArg(0, nPool-1, 1)
	return g
}

func poolIntro(nPool int, order func(i int) int) *Graph {
	return poolIntroBuilder(nPool, order).Build()
}

// assertSameGraph compares everything a consumer can read from a union,
// including what AppendBinary leaves out: event IDs, the symbol table an
// event resolves its representations in, and predecessor lists.
func assertSameGraph(t *testing.T, label string, got, want *Graph) {
	t.Helper()
	if !bytes.Equal(got.AppendBinary(nil), want.AppendBinary(nil)) {
		t.Fatalf("%s: binary encodings differ", label)
	}
	if len(got.Events) != len(want.Events) || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: %d/%d events/edges, want %d/%d", label,
			len(got.Events), got.NumEdges(), len(want.Events), want.NumEdges())
	}
	if !slices.Equal(got.Syms.Strings(), want.Syms.Strings()) {
		t.Fatalf("%s: symbol tables differ", label)
	}
	for id, we := range want.Events {
		ge := got.Events[id]
		if ge.Kind != we.Kind || ge.Pos != we.Pos || ge.Roles != we.Roles || got.File(id) != want.File(id) ||
			!slices.Equal(got.RepIDs(id), want.RepIDs(id)) || !reflect.DeepEqual(got.Reps(id), want.Reps(id)) {
			t.Fatalf("%s: event %d = %+v (reps %v), want %+v (reps %v)", label, id, ge, got.Reps(id), we, want.Reps(id))
		}
		if !slices.Equal(got.Succs(id), want.Succs(id)) || !slices.Equal(got.Preds(id), want.Preds(id)) {
			t.Fatalf("%s: event %d: succs %v preds %v, want %v %v", label, id,
				got.Succs(id), got.Preds(id), want.Succs(id), want.Preds(id))
		}
		for _, dst := range want.Succs(id) {
			if !slices.Equal(got.EdgeArgs(id, dst), want.EdgeArgs(id, dst)) {
				t.Fatalf("%s: edgeArgs(%d,%d) = %v, want %v", label, id, dst, got.EdgeArgs(id, dst), want.EdgeArgs(id, dst))
			}
		}
	}
}

// applyEdits is the oracle's side of Splice: the input list after edits.
func applyEdits(inputs []*Graph, edits []UnionEdit) []*Graph {
	var out []*Graph
	k := 0
	for _, e := range edits {
		out = append(out, inputs[k:e.At]...)
		out = append(out, e.Ins...)
		k = e.At + e.Del
	}
	return append(out, inputs[k:]...)
}

// TestSpliceMatchesUnion edits a standing union at random — replace by a
// smaller, larger or empty input, insert, remove, several edits at once,
// adjacent ones included — and after every Splice compares it with Union
// over the inputs it should now have, at GOMAXPROCS 1, 2 and 4. No edit
// touches the input that introduces the symbols, so none may be refused
// for its numbering; the dead space they leave must at some point be.
func TestSpliceMatchesUnion(t *testing.T) {
	const nPool = 24
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		rng := rand.New(rand.NewSource(int64(procs)))
		inputs := []*Graph{poolIntro(nPool, func(i int) int { return i })}
		for i := 0; i < 160; i++ {
			inputs = append(inputs, poolGraph(i, 5+i%23, nPool))
		}
		b := NewUnionBuilder()
		if why := b.Splice([]UnionEdit{{Ins: inputs}}); why != "" {
			t.Fatalf("first splice refused: %s", why)
		}
		assertSameGraph(t, "first", b.Graph(), Union(inputs...))
		compactions := 0
		for step := 0; step < 150; step++ {
			var edits []UnionEdit
			at := 1
			for len(edits) < 1+rng.Intn(4) && at <= len(inputs) {
				at += rng.Intn(1 + (len(inputs)-at)/2)
				e := UnionEdit{At: at}
				if at < len(inputs) {
					e.Del = rng.Intn(3)
					e.Del = min(e.Del, len(inputs)-at)
				}
				for n := rng.Intn(3); n > 0; n-- {
					g := poolGraph(rng.Intn(1000), rng.Intn(30), nPool)
					e.Ins = append(e.Ins, g)
				}
				if e.Del == 0 && len(e.Ins) == 0 {
					e.Ins = []*Graph{NewBuilder().Build()}
				}
				edits = append(edits, e)
				at += e.Del // the next edit may be adjacent
			}
			inputs = applyEdits(inputs, edits)
			switch why := b.Splice(edits); why {
			case "":
			case "compaction":
				compactions++
				b = NewUnionBuilder()
				b.Splice([]UnionEdit{{Ins: inputs}})
			default:
				t.Fatalf("GOMAXPROCS=%d step %d: splice refused: %s", procs, step, why)
			}
			if len(b.inputs) != len(inputs) {
				t.Fatalf("GOMAXPROCS=%d step %d: builder has %d inputs, want %d", procs, step, len(b.inputs), len(inputs))
			}
			assertSameGraph(t, fmt.Sprintf("GOMAXPROCS=%d step %d", procs, step), b.Graph(), Union(inputs...))
		}
		if compactions == 0 || compactions > 30 {
			t.Errorf("GOMAXPROCS=%d: %d of 150 edits asked for compaction; want a few", procs, compactions)
		}
	}
}

// TestSpliceNumbering pins when an edit in the middle is refused: when the
// new inputs would not introduce, input by input, the symbols the table
// has them introduce. That is every edit after which Union would number a
// symbol differently (an accepted edit is compared with Union, symbol
// table included), and a few after which it would not: the symbol an
// introducer loses may be the very next one a later input brings.
func TestSpliceNumbering(t *testing.T) {
	const nPool = 6
	id := func(i int) int { return i }
	swapped := func(i int) int { return [nPool]int{0, 1, 3, 2, 4, 5}[i] }
	named := func(names ...string) *Graph {
		g := NewBuilder()
		for i, n := range names {
			g.AddEvent(KindCall, "n.py", pytoken.Pos{Line: i + 1}, []string{n})
		}
		return g.Build()
	}
	base := func() []*Graph {
		return []*Graph{poolGraph(1, 4, 2), poolIntro(nPool, id), poolGraph(2, 9, nPool), named("late()"), poolGraph(3, 5, nPool)}
	}
	lb := poolIntroBuilder(nPool, id)
	lb.AddEvent(KindRead, "intro.py", pytoken.Pos{Line: 99}, []string{"api3()", "api0()"})
	longer := lb.Build()
	cases := []struct {
		name  string
		edits []UnionEdit
		why   string
	}{
		{"replace an introducer by one with the same symbols in the same order", []UnionEdit{{At: 1, Del: 1, Ins: []*Graph{longer}}}, ""},
		{"replace it by one that reorders them", []UnionEdit{{At: 1, Del: 1, Ins: []*Graph{poolIntro(nPool, swapped)}}}, "numbering"},
		{"replace it by one that loses the last", []UnionEdit{{At: 1, Del: 1, Ins: []*Graph{poolIntro(nPool-1, id)}}}, "numbering"},
		{"replace it by one that gains one", []UnionEdit{{At: 1, Del: 1, Ins: []*Graph{poolIntro(nPool+1, id)}}}, "numbering"},
		{"remove an introducer", []UnionEdit{{At: 1, Del: 1}}, "numbering"},
		{"remove one that introduces nothing", []UnionEdit{{At: 2, Del: 1}}, ""},
		{"insert one that knows every symbol", []UnionEdit{{At: 2, Ins: []*Graph{poolGraph(9, 7, nPool)}}}, ""},
		{"insert one with a symbol a later input introduces", []UnionEdit{{At: 2, Ins: []*Graph{named("api1()", "late()")}}}, "numbering"},
		{"insert one with a symbol nobody has", []UnionEdit{{At: 4, Ins: []*Graph{named("new()")}}}, "numbering"},
		{"insert it at the end", []UnionEdit{{At: 5, Ins: []*Graph{named("new()")}}}, ""},
		{"replace the last input by one with new symbols", []UnionEdit{{At: 4, Del: 1, Ins: []*Graph{named("api0()", "new()", "newer()")}}}, ""},
		{"split an introducer in two that bring the same symbols", []UnionEdit{{At: 1, Del: 1, Ins: []*Graph{poolIntro(3, id), poolIntro(nPool, id)}}}, ""},
		{"move a late symbol's introduction to the end", []UnionEdit{{At: 3, Del: 1}, {At: 5, Ins: []*Graph{named("late()")}}}, "numbering"},
		{"replace the last introducer and append", []UnionEdit{{At: 3, Del: 2, Ins: []*Graph{named("late()", "api2()")}}, {At: 5, Ins: []*Graph{named("new()")}}}, ""},
		{"nothing", nil, ""},
	}
	for _, c := range cases {
		inputs := base()
		b := NewUnionBuilder()
		b.Splice([]UnionEdit{{Ins: inputs}})
		after := applyEdits(inputs, c.edits)
		why := b.Splice(c.edits)
		if why != c.why {
			t.Errorf("%s: Splice = %q, want %q", c.name, why, c.why)
			continue
		}
		if why == "" {
			assertSameGraph(t, c.name, b.Graph(), Union(after...))
		}
	}
}
