package constraints_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"seldon/internal/constraints"
	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/lp"
	"seldon/internal/propgraph"
)

// corpusSpans analyzes a corpus and returns the per-file graphs (sorted
// name order), the union, and the file spans the union assigns.
func corpusSpans(t *testing.T, files map[string]string, workers int) ([]string, []*propgraph.Graph, *propgraph.Graph, []constraints.Span) {
	t.Helper()
	fe := core.AnalyzeFiles(files, core.Config{Workers: workers})
	union := propgraph.Union(fe.Graphs...)
	spans := make([]constraints.Span, len(fe.Names))
	at := 0
	for i, g := range fe.Graphs {
		spans[i] = constraints.Span{
			File: fe.Names[i],
			Lo:   at,
			Hi:   at + len(g.Events),
			Hash: sha256.Sum256(g.AppendBinary(nil)),
		}
		at = spans[i].Hi
	}
	return fe.Names, fe.Graphs, union, spans
}

// encodeSystem renders everything observable about a constraint system
// into deterministic bytes — the byte-equality oracle for the
// incremental build.
func encodeSystem(s *constraints.System) []byte {
	var b bytes.Buffer
	w := func(v int64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		b.Write(buf[:])
	}
	w(int64(s.Problem.NumVars))
	w(int64(len(s.Vars)))
	for _, v := range s.Vars {
		b.WriteString(v.Rep)
		w(int64(v.Role))
	}
	w(int64(len(s.EventInfos)))
	for i := range s.EventInfos {
		info := &s.EventInfos[i]
		w(int64(info.EventID))
		w(int64(info.Roles))
		for _, sym := range info.RepIDs {
			w(int64(sym))
		}
	}
	keys := make([]int, 0, len(s.Problem.Known))
	for k := range s.Problem.Known {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		w(int64(k))
		w(int64(s.Problem.Known[k] * 1000))
	}
	w(int64(len(s.Problem.Constraints)))
	for i := range s.Problem.Constraints {
		c := &s.Problem.Constraints[i]
		w(int64(len(c.LHS)))
		for _, tm := range c.LHS {
			w(int64(tm.Var))
			w(int64(tm.Coef * 1e9))
		}
		w(int64(len(c.RHS)))
		for _, tm := range c.RHS {
			w(int64(tm.Var))
			w(int64(tm.Coef * 1e9))
		}
	}
	w(int64(s.CountA))
	w(int64(s.CountB))
	w(int64(s.CountC))
	w(int64(s.SkippedComponents))
	return b.Bytes()
}

// TestBuildIncrementalMatchesBuild: on a fresh cache (every span
// rebuilt) and on a warm cache (every span reused), the incremental
// build is byte-identical to Build, at workers 1, 2, 3 and 8.
func TestBuildIncrementalMatchesBuild(t *testing.T) {
	files := corpus.Generate(corpus.Config{Files: 40, Seed: 7}).FileMap()
	seed := corpus.ExperimentSeed()
	for _, workers := range []int{1, 2, 3, 8} {
		opts := constraints.Options{Workers: workers}
		_, _, union, spans := corpusSpans(t, files, workers)
		full := constraints.Build(union, seed, opts)
		want := encodeSystem(full)

		cache := constraints.NewFlowCache()
		inc, st := constraints.BuildIncremental(union, seed, opts, spans, cache)
		if st.FellBack {
			t.Fatalf("workers=%d: cold incremental build fell back", workers)
		}
		if st.SpansRebuilt != len(spans) || st.SpansReused != 0 {
			t.Fatalf("workers=%d: cold build reused %d/%d spans", workers, st.SpansReused, st.Spans)
		}
		if got := encodeSystem(inc); !bytes.Equal(got, want) ||
			!reflect.DeepEqual(inc.Problem.Constraints, full.Problem.Constraints) {
			t.Fatalf("workers=%d: cold incremental system differs from Build", workers)
		}

		// Same graph again: everything must come from the cache.
		inc2, st2 := constraints.BuildIncremental(union, seed, opts, spans, cache)
		if st2.SpansReused != len(spans) || st2.SpansRebuilt != 0 {
			t.Fatalf("workers=%d: warm build reused %d/%d spans, rebuilt %d",
				workers, st2.SpansReused, st2.Spans, st2.SpansRebuilt)
		}
		if st2.ConstraintsReused != len(full.Problem.Constraints) {
			t.Fatalf("workers=%d: warm build reused %d constraints, want %d",
				workers, st2.ConstraintsReused, len(full.Problem.Constraints))
		}
		if got := encodeSystem(inc2); !bytes.Equal(got, want) ||
			!reflect.DeepEqual(inc2.Problem.Constraints, full.Problem.Constraints) {
			t.Fatalf("workers=%d: warm incremental system differs from Build", workers)
		}
	}
}

// TestBuildIncrementalAfterMutation mutates one corpus file and checks
// the delta build against a from-scratch build of the mutated corpus —
// the equivalence oracle of the incremental subsystem — at workers 1,
// 2, 3 and 8.
func TestBuildIncrementalAfterMutation(t *testing.T) {
	files := corpus.Generate(corpus.Config{Files: 40, Seed: 7}).FileMap()
	seed := corpus.ExperimentSeed()
	var names []string
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	victim := names[len(names)-1]

	for _, workers := range []int{1, 2, 3, 8} {
		opts := constraints.Options{Workers: workers}
		_, _, union, spans := corpusSpans(t, files, workers)
		cache := constraints.NewFlowCache()
		constraints.BuildIncremental(union, seed, opts, spans, cache)

		mutated := make(map[string]string, len(files))
		for n, src := range files {
			mutated[n] = src
		}
		mutated[victim] += "\ndef extra(q):\n    y = q.fetch()\n    sys_exec(y)\n"

		_, _, union2, spans2 := corpusSpans(t, mutated, workers)
		inc, st := constraints.BuildIncremental(union2, seed, opts, spans2, cache)
		full := constraints.Build(union2, seed, opts)
		if !bytes.Equal(encodeSystem(inc), encodeSystem(full)) ||
			!reflect.DeepEqual(inc.Problem.Constraints, full.Problem.Constraints) {
			t.Fatalf("workers=%d: incremental system after mutation differs from from-scratch build", workers)
		}
		if st.FellBack {
			t.Fatalf("workers=%d: mutation build fell back", workers)
		}
		if st.SpansReused == 0 {
			t.Fatalf("workers=%d: mutation of one file reused no spans", workers)
		}
		t.Logf("workers=%d: reused %d/%d spans, %d constraints", workers,
			st.SpansReused, st.Spans, st.ConstraintsReused)
	}
}

// TestBuildIncrementalFallback: spans that do not tile the graph (or a
// nil cache) degrade to a full build with identical output.
func TestBuildIncrementalFallback(t *testing.T) {
	files := corpus.Generate(corpus.Config{Files: 6, Seed: 3}).FileMap()
	seed := corpus.ExperimentSeed()
	_, _, union, spans := corpusSpans(t, files, 1)
	opts := constraints.Options{Workers: 1}
	want := encodeSystem(constraints.Build(union, seed, opts))

	inc, st := constraints.BuildIncremental(union, seed, opts, spans[:len(spans)-1], constraints.NewFlowCache())
	if !st.FellBack {
		t.Fatal("non-tiling spans did not fall back")
	}
	if !bytes.Equal(encodeSystem(inc), want) {
		t.Fatal("fallback build differs from Build")
	}

	inc2, st2 := constraints.BuildIncremental(union, seed, opts, spans, nil)
	if !st2.FellBack {
		t.Fatal("nil cache did not fall back")
	}
	if !bytes.Equal(encodeSystem(inc2), want) {
		t.Fatal("nil-cache build differs from Build")
	}
}

// TestSpanFingerprintTracksGlobalState: mutating an early file shifts
// global variable numbering; a later file whose own bytes are unchanged
// must still rebuild when its variable IDs moved, and the result must
// stay correct. (reflect.DeepEqual over the problem double-checks the
// byte oracle on this path.)
func TestSpanFingerprintTracksGlobalState(t *testing.T) {
	files := corpus.Generate(corpus.Config{Files: 8, Seed: 11}).FileMap()
	seed := corpus.ExperimentSeed()
	var names []string
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	victim := names[0] // first file: renumbers everything after it

	opts := constraints.Options{Workers: 1}
	_, _, union, spans := corpusSpans(t, files, 1)
	cache := constraints.NewFlowCache()
	constraints.BuildIncremental(union, seed, opts, spans, cache)

	mutated := make(map[string]string, len(files))
	for n, src := range files {
		mutated[n] = src
	}
	mutated[victim] = "def fresh(a):\n    b = a.read()\n    return b\n"

	_, _, union2, spans2 := corpusSpans(t, mutated, 1)
	inc, _ := constraints.BuildIncremental(union2, seed, opts, spans2, cache)
	full := constraints.Build(union2, seed, opts)
	if !bytes.Equal(encodeSystem(inc), encodeSystem(full)) {
		t.Fatal("incremental system differs after head-file mutation")
	}
	if !reflect.DeepEqual(inc.Problem.Constraints, full.Problem.Constraints) {
		t.Fatal("constraint slices differ after head-file mutation")
	}
	if !reflect.DeepEqual(inc.Problem.Known, full.Problem.Known) {
		t.Fatal("known pins differ after head-file mutation")
	}
}

// systemBytes is the size of what a build returns and a caller keeps, as
// far as this package exports it: the constraint headers, the
// candidate-event table with its symbol arena, and the variable table.
// Terms are left out — a warm incremental build shares them with the
// cache.
func systemBytes(s *constraints.System) uint64 {
	n := uint64(len(s.Problem.Constraints)) * uint64(unsafe.Sizeof(lp.Constraint{}))
	n += uint64(len(s.EventInfos)) * uint64(unsafe.Sizeof(constraints.EventInfo{}))
	for i := range s.EventInfos {
		n += uint64(len(s.EventInfos[i].RepIDs)) * uint64(unsafe.Sizeof(propgraph.Sym(0)))
	}
	return n + uint64(len(s.Vars))*uint64(unsafe.Sizeof(constraints.Variable{}))
}

// TestBuildIncrementalAllocBudget: a build that finds every block in the
// cache allocates little beyond the system it returns — no growth of the
// constraint slice, no per-span garbage.
func TestBuildIncrementalAllocBudget(t *testing.T) {
	if constraints.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	files := corpus.Generate(corpus.Config{Files: 300, Seed: 7}).FileMap()
	seed := corpus.ExperimentSeed()
	opts := constraints.Options{Workers: 1}
	_, _, union, spans := corpusSpans(t, files, 1)
	cache := constraints.NewFlowCache()
	constraints.BuildIncremental(union, seed, opts, spans, cache)

	var sys *constraints.System
	var st constraints.DeltaStats
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 10
	for i := 0; i < runs; i++ {
		sys, st = constraints.BuildIncremental(union, seed, opts, spans, cache)
	}
	runtime.ReadMemStats(&after)
	if st.SpansReused != len(spans) {
		t.Fatalf("warm build reused %d of %d spans", st.SpansReused, len(spans))
	}
	perRun, kept := (after.TotalAlloc-before.TotalAlloc)/runs, systemBytes(sys)
	t.Logf("warm build allocates %d bytes, returns %d (%.2fx)", perRun, kept, float64(perRun)/float64(kept))
	if perRun*2 > kept*3 {
		t.Errorf("warm BuildIncremental allocates %d bytes for a %d-byte system, budget 1.5x", perRun, kept)
	}
}
