package constraints_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"sort"
	"strings"
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

// survivors returns the spellings of the representations that survive
// the filter in some candidate event of s.
func survivors(s *constraints.System) map[string]bool {
	strs := s.Syms.Strings()
	out := make(map[string]bool)
	for i := range s.EventInfos {
		for _, sym := range s.EventInfos[i].RepIDs {
			out[strs[sym]] = true
		}
	}
	return out
}

// numberingKept reports whether two builds number alike as far as a
// span's fingerprint can tell: the same variable table and the same
// surviving representations.
func numberingKept(a, b *constraints.System) bool {
	return reflect.DeepEqual(a.Vars, b.Vars) && maps.Equal(survivors(a), survivors(b))
}

// TestSpanFingerprintTracksGlobalState walks one cache through edits that
// do and do not move the global numbering. A file whose own bytes are
// unchanged must still rebuild when its variable IDs moved or one of its
// representations crossed the cutoff, and after every build the
// incremental system must be Build's (bytes, and reflect.DeepEqual over
// the problem). The fingerprints must be hashed exactly where the memory
// rule says: every span when the numbering moved, only the spans whose
// graph changed when it did not.
func TestSpanFingerprintTracksGlobalState(t *testing.T) {
	files := corpus.Generate(corpus.Config{Files: 8, Seed: 11}).FileMap()
	seed := corpus.ExperimentSeed()
	var names []string
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	// A file no edit touches, calling a library four times: one call more
	// anywhere puts its representations at the cutoff of five.
	const rareFile = "zz_rare.py"
	files[rareFile] = "import rarelib\n\n" + calls("rare_user", "rarelib.fetch_rare", 4)
	// Two libraries called first by one file and again by a later one that
	// no edit touches: swapping the calls in the first swaps the variable
	// IDs the later file's constraints carry, and nothing else.
	const pairFirst, pairLater = "a_pair.py", "zy_pair.py"
	pairA, pairB := calls("one_user", "alib.one", 3), calls("two_user", "blib.two", 3)
	files[pairFirst] = "import alib\nimport blib\n\n" + pairA + pairB
	files[pairLater] = "import alib\nimport blib\n\n" + calls("one_again", "alib.one", 2) + calls("two_again", "blib.two", 2)

	opts := constraints.Options{Workers: 1}
	cache := constraints.NewFlowCache()
	var prev *constraints.System
	var prevSpans []constraints.Span
	step := func(label string, files map[string]string) (*constraints.System, []constraints.Span) {
		t.Helper()
		_, _, union, spans := corpusSpans(t, files, 1)
		inc, st := constraints.BuildIncremental(union, seed, opts, spans, cache)
		full := constraints.Build(union, seed, opts)
		if !bytes.Equal(encodeSystem(inc), encodeSystem(full)) {
			t.Fatalf("%s: incremental system differs from Build", label)
		}
		if !reflect.DeepEqual(inc.Problem.Constraints, full.Problem.Constraints) {
			t.Fatalf("%s: constraint slices differ", label)
		}
		if !reflect.DeepEqual(inc.Problem.Known, full.Problem.Known) {
			t.Fatalf("%s: known pins differ", label)
		}
		want := len(spans)
		if prev != nil && numberingKept(prev, full) {
			seen := make(map[constraints.Span]bool, len(prevSpans))
			for _, sp := range prevSpans {
				seen[constraints.Span{File: sp.File, Hash: sp.Hash}] = true
			}
			want = 0
			for _, sp := range spans {
				if !seen[constraints.Span{File: sp.File, Hash: sp.Hash}] {
					want++
				}
			}
		}
		if st.SpansHashed != want {
			t.Fatalf("%s: hashed %d of %d spans, the memory rule says %d", label, st.SpansHashed, st.Spans, want)
		}
		t.Logf("%s: hashed %d, remembered %d, rebuilt %d of %d spans", label,
			st.SpansHashed, st.Spans-st.SpansHashed, st.SpansRebuilt, st.Spans)
		prev, prevSpans = full, spans
		return full, spans
	}
	edit := func(name, src string) map[string]string {
		next := maps.Clone(files)
		next[name] = src
		return next
	}

	step("cold", files)
	if _, spans := step("unchanged", files); cache.Len() != len(spans) {
		t.Fatalf("cache holds %d blocks for %d spans", cache.Len(), len(spans))
	}

	// The first file: renumbers everything after it.
	before := prev
	files = edit(names[0], "def fresh(a):\n    b = a.read()\n    return b\n")
	if step("head file replaced", files); numberingKept(before, prev) {
		t.Fatal("replacing the head file kept the numbering")
	}

	// A middle file gains a library of its own, called past the cutoff:
	// new variables in the middle of the table, the ones before them kept.
	before = prev
	mid := names[len(names)/2]
	files = edit(mid, files[mid]+"\nimport newlib\n\n"+calls("new_user", "newlib.brand_new", 6))
	step("variables inserted mid-table", files)
	kept := 0
	for kept < min(len(before.Vars), len(prev.Vars)) && before.Vars[kept] == prev.Vars[kept] {
		kept++
	}
	if kept == 0 || kept == len(before.Vars) || len(prev.Vars) <= len(before.Vars) {
		t.Fatalf("the edit kept %d of %d variables and left %d: not a renumbering of the later ones only",
			kept, len(before.Vars), len(prev.Vars))
	}

	// The first pair file calls its libraries the other way round: as many
	// variables as before, the same survivors, two IDs swapped.
	before = prev
	files = edit(pairFirst, "import alib\nimport blib\n\n"+pairB+pairA)
	step("variables swapped", files)
	if len(before.Vars) != len(prev.Vars) || !maps.Equal(survivors(before), survivors(prev)) || numberingKept(before, prev) {
		t.Fatalf("swapping the calls gave %d variables for %d, survivors equal %v: not a swap",
			len(prev.Vars), len(before.Vars), maps.Equal(survivors(before), survivors(prev)))
	}

	// Another file calls the rare library once: zz_rare's representations
	// reach the cutoff, though its bytes stay as they were.
	before, beforeSpans := prev, prevSpans
	files = edit(names[1], files[names[1]]+"\nimport rarelib\n\n"+calls("rare_caller", "rarelib.fetch_rare", 1))
	step("untouched file crosses the cutoff", files)
	if was, is := survivorsIn(before, beforeSpans, rareFile), survivorsIn(prev, prevSpans, rareFile); is <= was {
		t.Fatalf("%s had %d surviving representations, now %d: the cutoff was not crossed", rareFile, was, is)
	}

	// A file gains a call nothing else makes: its graph changes, the
	// numbering does not.
	before = prev
	files = edit(names[2], files[names[2]]+"\n"+calls("quiet_user", "quietlib.only_once", 1))
	step("nothing global", files)
	if !numberingKept(before, prev) {
		t.Fatal("a call made once moved the numbering")
	}
}

// calls is Python source defining n functions named prefix0… that each
// call fn on their argument.
func calls(prefix, fn string, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "def %s%d(q):\n    v = %s(q)\n    return v\n\n", prefix, i, fn)
	}
	return b.String()
}

// survivorsIn counts the surviving representations of the events of
// file's span in s.
func survivorsIn(s *constraints.System, spans []constraints.Span, file string) int {
	n := 0
	for _, sp := range spans {
		for id := sp.Lo; id < sp.Hi && sp.File == file; id++ {
			if info := s.InfoFor(id); info != nil {
				n += len(info.RepIDs)
			}
		}
	}
	return n
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
// cache, and every fingerprint in its memory, allocates well under the
// system it returns — it hashes no span, and writes the constraint slice
// and the problem blocks over the previous build's.
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
	if st.SpansReused != len(spans) || st.SpansHashed != 0 {
		t.Fatalf("warm build reused %d and hashed %d of %d spans", st.SpansReused, st.SpansHashed, len(spans))
	}
	// Measured at this size: 0.15x (0.69x while every build allocated its
	// own event tables, 1.30x while it also hashed every span and allocated
	// its own constraint slice). The budget leaves less slack than the
	// smallest of those tables, the event → table index, so none can come
	// back unnoticed.
	perRun, kept := (after.TotalAlloc-before.TotalAlloc)/runs, systemBytes(sys)
	budget := kept / 5
	index := uint64(len(union.Events)) * uint64(unsafe.Sizeof(int(0)))
	slice := uint64(len(sys.Problem.Constraints)) * uint64(unsafe.Sizeof(lp.Constraint{}))
	t.Logf("warm build allocates %d bytes, returns %d (%.2fx); constraint slice %d, event index %d",
		perRun, kept, float64(perRun)/float64(kept), slice, index)
	if perRun > budget {
		t.Errorf("warm BuildIncremental allocates %d bytes for a %d-byte system, budget 0.2x", perRun, kept)
	} else if slack := budget - perRun; slack >= min(index, slice) {
		t.Errorf("budget leaves %d bytes of slack, room for the %d-byte event index to come back", slack, index)
	}
}

// TestBuildsThroughOneCacheAreBuilds: a build through a cache writes its
// event tables over the previous build's. Corpus A, a larger corpus B,
// A again and an empty corpus, at three worker counts, through one cache:
// each system equals Build's in every field, unexported ones included —
// the problem's block list aside, which only a cached build carries.
func TestBuildsThroughOneCacheAreBuilds(t *testing.T) {
	seed := corpus.ExperimentSeed()
	_, _, ua, sa := corpusSpans(t, corpus.Generate(corpus.Config{Files: 120, Seed: 21}).FileMap(), 1)
	_, _, ub, sb := corpusSpans(t, corpus.Generate(corpus.Config{Files: 240, Seed: 22}).FileMap(), 1)
	cache := constraints.NewFlowCache()
	for i, step := range []struct {
		g       *propgraph.Graph
		spans   []constraints.Span
		workers int
	}{{ua, sa, 4}, {ub, sb, 2}, {ua, sa, 3}, {propgraph.Union(), nil, 2}} {
		opts := constraints.Options{Workers: step.workers}
		got, st := constraints.BuildIncremental(step.g, seed, opts, step.spans, cache)
		want := constraints.Build(step.g, seed, opts)
		if st.FellBack || len(got.Problem.Blocks) != len(step.spans) {
			t.Fatalf("build %d: %+v with %d blocks for %d spans", i, st, len(got.Problem.Blocks), len(step.spans))
		}
		problem := *got.Problem
		problem.Blocks = nil
		cached := *got
		cached.Problem = &problem
		if !reflect.DeepEqual(&cached, want) {
			t.Fatalf("build %d (%d events, %d workers): system through the cache differs from Build's",
				i, len(step.g.Events), step.workers)
		}
	}
}
