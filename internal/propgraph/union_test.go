package propgraph

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"seldon/internal/pytoken"
)

// naiveUnion replicates the original event-by-event, edge-by-edge union:
// every event re-added through AddEvent (re-interning its representation
// strings into the output's table), every edge through AddEdge, every
// label through AddEdgeArg. The
// arena-based, symbol-translating Union must stay byte-identical to it.
func naiveUnion(graphs ...*Graph) *Graph {
	out := New()
	for _, g := range graphs {
		base := len(out.Events)
		for _, e := range g.Events {
			ne := out.AddEvent(e.Kind, e.File, e.Pos, e.Reps())
			ne.Roles = e.Roles
		}
		for src, ss := range g.succs {
			for _, dst := range ss {
				out.AddEdge(base+src, base+dst)
			}
		}
		for key, args := range g.edgeArgs {
			for _, a := range args {
				out.AddEdgeArg(base+int(key>>32), base+int(uint32(key)), a)
			}
		}
	}
	return out
}

// pseudoGraph builds a deterministic graph with irregular fan-in/fan-out,
// labeled edges, and some isolated vertices.
func pseudoGraph(seed, nEvents int) *Graph {
	g := New()
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

func TestUnionMatchesAddEdgeUnion(t *testing.T) {
	cases := [][]*Graph{
		{},
		{New()},
		{pseudoGraph(1, 12)},
		{pseudoGraph(1, 12), New(), pseudoGraph(2, 7)},
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
			if ge.ID != we.ID || ge.Kind != we.Kind || ge.File != we.File ||
				ge.Pos != we.Pos || ge.Roles != we.Roles ||
				!reflect.DeepEqual(ge.RepIDs, we.RepIDs) ||
				!reflect.DeepEqual(ge.Reps(), we.Reps()) {
				t.Fatalf("case %d: event %d = %+v (reps %v), want %+v (reps %v)",
					ci, id, ge, ge.Reps(), we, we.Reps())
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
	// Measured 60: most of it is the symbol table growing to the ~1.3k
	// distinct symbols of the inputs. It was 78 while every label went
	// through AddEdgeArg.
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
	g := pseudoGraph(seed, nEvents)
	for i := 0; i+1 < nEvents; i += 2 {
		src, dst := i, (i+1+seed)%nEvents
		g.AddEdgeArg(src, dst, ArgKeyword)
		if i%4 == 0 {
			g.AddEdgeArg(src, dst, 2)
			g.AddEdgeArg(src, dst, ArgReceiver)
			g.AddEdgeArg(src, dst, 0)
		}
	}
	return g
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
			g = New()
		}
		big = append(big, g)
		events += len(g.Events)
	}
	cases := map[string][]*Graph{
		"none":      {},
		"empty":     {New()},
		"one":       {labelledGraph(1, 30)},
		"one-big":   {labelledGraph(2, unionFanoutEvents+10)},
		"small":     {labelledGraph(1, 12), New(), labelledGraph(2, 7), New()},
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
