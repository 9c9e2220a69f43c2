package propgraph

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"seldon/internal/pytoken"
)

func TestInternerAssignsDenseFirstSeenIDs(t *testing.T) {
	in := NewInterner()
	ids := []Sym{
		in.Intern("a()"),
		in.Intern("b()"),
		in.Intern("a()"), // repeat: same ID
		in.Intern("c()"),
	}
	if want := []Sym{0, 1, 0, 2}; !reflect.DeepEqual(ids, want) {
		t.Errorf("ids = %v, want %v", ids, want)
	}
	if in.Len() != 3 {
		t.Errorf("len = %d, want 3", in.Len())
	}
	if in.Bytes() != int64(len("a()")+len("b()")+len("c()")) {
		t.Errorf("bytes = %d", in.Bytes())
	}
	if s := in.Str(1); s != "b()" {
		t.Errorf("Str(1) = %q", s)
	}
	if s := in.Str(99); s != "" {
		t.Errorf("out-of-range Str = %q", s)
	}
	if id, ok := in.Lookup("c()"); !ok || id != 2 {
		t.Errorf("Lookup(c) = %d,%v", id, ok)
	}
	if _, ok := in.Lookup("absent"); ok {
		t.Error("Lookup found an absent string")
	}
}

func TestInternerStringsIsStableSnapshot(t *testing.T) {
	in := NewInterner()
	in.Intern("x")
	in.Intern("y")
	snap := in.Strings()
	if want := []string{"x", "y"}; !reflect.DeepEqual(snap, want) {
		t.Fatalf("snapshot = %v", snap)
	}
	// Later interning must not grow or disturb the snapshot (its capacity
	// is capped, so appends by the table cannot alias into it).
	for i := 0; i < 100; i++ {
		in.Intern(fmt.Sprintf("later%d", i))
	}
	if len(snap) != 2 || snap[0] != "x" || snap[1] != "y" {
		t.Errorf("snapshot changed after interning: %v", snap[:2])
	}
	if got := in.Strings(); len(got) != 102 {
		t.Errorf("new snapshot length = %d, want 102", len(got))
	}
}

func TestInternerNilSafety(t *testing.T) {
	var in *Interner
	if in.Len() != 0 || in.Bytes() != 0 || in.Str(0) != "" || in.Strings() != nil {
		t.Error("nil interner accessors must return zero values")
	}
	if _, ok := in.Lookup("x"); ok {
		t.Error("nil interner Lookup must miss")
	}
}

func TestTranslateFrom(t *testing.T) {
	src := NewInterner()
	src.Intern("a")
	src.Intern("b")
	src.Intern("c")

	dst := NewInterner()
	dst.Intern("b") // pre-existing entry: translation must reuse it
	xlat := dst.TranslateFrom(src)
	if want := []Sym{1, 0, 2}; !reflect.DeepEqual(xlat, want) {
		t.Errorf("xlat = %v, want %v", xlat, want)
	}
	if dst.Str(2) != "c" {
		t.Errorf("dst table = %v", dst.Strings())
	}
	if got := dst.TranslateFrom(NewInterner()); got != nil {
		t.Errorf("empty source translation = %v", got)
	}
}

// TestInternerConcurrentIntern exercises the double-checked locking under
// the race detector: concurrent Intern calls over overlapping strings must
// agree on one ID per string and keep the table consistent.
func TestInternerConcurrentIntern(t *testing.T) {
	in := NewInterner()
	const workers, strings = 8, 200
	var wg sync.WaitGroup
	got := make([][]Sym, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]Sym, strings)
			for i := range ids {
				ids[i] = in.Intern(fmt.Sprintf("rep%d", i))
			}
			got[w] = ids
		}(w)
	}
	wg.Wait()
	if in.Len() != strings {
		t.Fatalf("len = %d, want %d", in.Len(), strings)
	}
	for w := 1; w < workers; w++ {
		if !reflect.DeepEqual(got[w], got[0]) {
			t.Fatalf("worker %d saw different IDs", w)
		}
	}
	// Every ID resolves back to the string that produced it.
	for i, id := range got[0] {
		if in.Str(id) != fmt.Sprintf("rep%d", i) {
			t.Fatalf("Str(%d) = %q", id, in.Str(id))
		}
	}
}

func TestEventRepAccessors(t *testing.T) {
	b := new(Builder)
	e := b.AddEvent(KindCall, "t.py", pytoken.Pos{Line: 1},
		[]string{"a.b.f()", "b.f()", "f()"})
	bare := b.AddEvent(KindCall, "t.py", pytoken.Pos{Line: 2}, nil)
	e2 := b.AddEvent(KindCall, "t.py", pytoken.Pos{Line: 3}, []string{"f()"})
	g := b.Build()
	if g.NumReps(e) != 3 {
		t.Fatalf("NumReps = %d", g.NumReps(e))
	}
	if g.Rep(e, 0) != "a.b.f()" || g.Rep(e, 2) != "f()" {
		t.Errorf("Rep() = %q, %q", g.Rep(e, 0), g.Rep(e, 2))
	}
	if want := []string{"a.b.f()", "b.f()", "f()"}; !reflect.DeepEqual(g.Reps(e), want) {
		t.Errorf("Reps() = %v", g.Reps(e))
	}
	if g.NumReps(bare) != 0 || g.Reps(bare) != nil {
		t.Errorf("rep-less event: NumReps=%d Reps=%v", g.NumReps(bare), g.Reps(bare))
	}
	// Shared strings share symbols.
	if g.RepIDs(e2)[0] != g.RepIDs(e)[2] {
		t.Errorf("equal reps got distinct symbols: %d vs %d", g.RepIDs(e2)[0], g.RepIDs(e)[2])
	}
}

// TestAddEdgeDedupEquivalence drives one source across the dedupDegree
// threshold and checks that the edge-set path preserves exactly the
// behavior of a pure linear scan: duplicates dropped wherever they occur,
// successor order = first-add order.
func TestAddEdgeDedupEquivalence(t *testing.T) {
	const n = 3*dedupDegree + 5
	b := new(Builder)
	src := addEv(b, KindCall, "hub()")
	var want []int
	for i := 0; i < n; i++ {
		dst := addEv(b, KindCall, fmt.Sprintf("t%d()", i))
		b.AddEdge(src, dst)
		want = append(want, dst)
		// Re-add every edge so far: all duplicates, below and above the
		// threshold, must be dropped.
		for _, d := range want {
			b.AddEdge(src, d)
		}
		b.AddEdge(src, src) // self-loop never inserts
	}
	g := b.Build()
	if !reflect.DeepEqual(g.Succs(src), want) {
		t.Fatalf("succs = %v\nwant %v", g.Succs(src), want)
	}
	if g.NumEdges() != n {
		t.Errorf("edges = %d, want %d", g.NumEdges(), n)
	}
	// Preds stay deduplicated too.
	last := want[len(want)-1]
	if !reflect.DeepEqual(g.Preds(last), []int{src}) {
		t.Errorf("preds(last) = %v", g.Preds(last))
	}
}
