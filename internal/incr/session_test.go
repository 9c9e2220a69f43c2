package incr_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"seldon/internal/constraints"
	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/incr"
	"seldon/internal/lp"
	"seldon/internal/obs"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
	"seldon/internal/specio"
)

func testCorpus(t *testing.T, n int, seed int64) (map[string]string, []string) {
	t.Helper()
	files := corpus.Generate(corpus.Config{Files: n, Seed: seed}).FileMap()
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	return files, names
}

// sessionFrom splices every corpus file into a fresh session.
func sessionFrom(t *testing.T, files map[string]string, cfg core.Config) *incr.Session {
	t.Helper()
	s := incr.NewSession(corpus.ExperimentSeed(), cfg)
	for name, src := range files {
		s.SpliceSource(name, src)
	}
	return s
}

// storeBytes encodes a spec store with fixed metadata — the byte-level
// equality oracle for learned results.
func storeBytes(t *testing.T, sp *spec.Spec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := specio.Encode(&buf, sp, specio.Meta{Generator: "oracle"}); err != nil {
		t.Fatalf("encode store: %v", err)
	}
	return buf.Bytes()
}

// scratchLearn runs the ordinary from-scratch pipeline over files — the
// ground truth every incremental path must reproduce.
func scratchLearn(t *testing.T, files map[string]string, workers int) *spec.Spec {
	t.Helper()
	seed := corpus.ExperimentSeed()
	res := core.LearnFromSources(files, seed, core.Config{Workers: workers})
	return res.LearnedSpec(seed)
}

// TestSessionEquivalenceOracle is the tentpole contract: splice a
// corpus in, re-learn, mutate one file, re-learn again — at every step
// the learned store must be byte-identical to a from-scratch run over
// the session's current file set, at workers 1 and 4.
func TestSessionEquivalenceOracle(t *testing.T) {
	files, names := testCorpus(t, 12, 7)
	victim := names[len(names)-1]

	for _, workers := range []int{1, 4} {
		s := sessionFrom(t, files, core.Config{Workers: workers})
		if s.Len() != len(files) {
			t.Fatalf("workers=%d: session has %d files, want %d", workers, s.Len(), len(files))
		}
		_, st := s.Relearn()
		if st.WarmStarted {
			t.Fatalf("workers=%d: first relearn claimed a warm start", workers)
		}
		if got, want := storeBytes(t, s.LearnedSpec()), storeBytes(t, scratchLearn(t, files, workers)); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: cold session store differs from from-scratch", workers)
		}

		mutated := make(map[string]string, len(files))
		for n, src := range files {
			mutated[n] = src
		}
		mutated[victim] += "\ndef extra(q):\n    y = q.fetch()\n    sys_exec(y)\n"
		s.SpliceSource(victim, mutated[victim])

		_, st2 := s.Relearn()
		if !st2.WarmStarted {
			t.Fatalf("workers=%d: second relearn did not warm-start", workers)
		}
		if st2.FilesChanged != 1 {
			t.Fatalf("workers=%d: FilesChanged = %d, want 1", workers, st2.FilesChanged)
		}
		if st2.Delta.FellBack {
			t.Fatalf("workers=%d: delta build fell back", workers)
		}
		if st2.Delta.SpansReused != len(files)-1 {
			t.Fatalf("workers=%d: reused %d spans, want %d", workers, st2.Delta.SpansReused, len(files)-1)
		}
		scratch := scratchLearn(t, mutated, workers)
		if !specio.Equal(s.LearnedSpec(), scratch) {
			t.Fatalf("workers=%d: warm session store not Equal to from-scratch", workers)
		}
		if got, want := storeBytes(t, s.LearnedSpec()), storeBytes(t, scratch); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: warm session store bytes differ from from-scratch", workers)
		}
	}
}

// TestSpliceSourcesBatch: one batch call holds what file-by-file splicing
// holds, counts what it analyzed and what it skipped by content hash, and
// leaves files it was not handed alone.
func TestSpliceSourcesBatch(t *testing.T) {
	files, names := testCorpus(t, 40, 3)
	one := sessionFrom(t, files, core.Config{Workers: 1})
	batch := incr.NewSession(corpus.ExperimentSeed(), core.Config{Workers: 4})
	if spliced, unchanged := batch.SpliceSources(files); spliced != len(files) || unchanged != 0 {
		t.Fatalf("first sync: %d spliced, %d unchanged, want %d, 0", spliced, unchanged, len(files))
	}
	for _, name := range names {
		if !bytes.Equal(batch.EncodedGraph(name), one.EncodedGraph(name)) {
			t.Fatalf("%s: batch and file-by-file graphs differ", name)
		}
	}
	if spliced, unchanged := batch.SpliceSources(files); spliced != 0 || unchanged != len(files) {
		t.Fatalf("second sync: %d spliced, %d unchanged, want 0, %d", spliced, unchanged, len(files))
	}
	edit := map[string]string{
		names[0]: files[names[0]] + "\ndef extra(q):\n    y = q.fetch()\n    sys_exec(y)\n",
		names[1]: files[names[1]],
		"new.py": "y = 2\n",
	}
	if spliced, unchanged := batch.SpliceSources(edit); spliced != 2 || unchanged != 1 {
		t.Fatalf("edit sync: %d spliced, %d unchanged, want 2, 1", spliced, unchanged)
	}
	if batch.Len() != len(files)+1 {
		t.Fatalf("session holds %d files, want %d", batch.Len(), len(files)+1)
	}
	if bytes.Equal(batch.EncodedGraph(names[0]), one.EncodedGraph(names[0])) {
		t.Error("edited file kept its old graph")
	}
}

// TestCorpusFingerprint: a session of sources names its corpus as
// specio.Fingerprint does, before and after a save and load; a file
// spliced as a graph, with no source, leaves the corpus unnamed.
func TestCorpusFingerprint(t *testing.T) {
	files, names := testCorpus(t, 8, 2)
	s := incr.NewSession(corpus.ExperimentSeed(), core.Config{Workers: 1})
	s.SpliceSources(files)
	want := specio.Fingerprint(files)
	if got := s.CorpusFingerprint(); got != want {
		t.Fatalf("fingerprint %q, want %q", got, want)
	}
	dir := t.TempDir()
	if err := s.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	s2, err := incr.LoadDir(dir, corpus.ExperimentSeed(), core.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.CorpusFingerprint(); got != want {
		t.Fatalf("fingerprint after load %q, want %q", got, want)
	}
	fe := core.AnalyzeFiles(map[string]string{names[0]: files[names[0]]}, core.Config{Workers: 1})
	s2.Splice(names[0]+".copy.py", fe.Graphs[0])
	if got := s2.CorpusFingerprint(); got != "" {
		t.Fatalf("fingerprint with a graph spliced without its source = %q, want empty", got)
	}
}

// TestSessionRelearnFannedOut runs a session over a corpus large enough
// that Relearn's union is copied by several goroutines and its flow pass
// has stale spans for every worker (under -race this is the test that
// exercises both from the session): after an edit, the union must encode
// to the bytes of a one-at-a-time UnionBuilder over a fresh front-end
// run, and the incrementally built constraints must be the sequential
// from-scratch build's exactly.
func TestSessionRelearnFannedOut(t *testing.T) {
	files, names := testCorpus(t, 300, 5)
	seed := corpus.ExperimentSeed()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s := sessionFrom(t, files, core.Config{Workers: 4})
	s.Relearn()
	for _, victim := range []string{names[0], names[150], names[299]} {
		files[victim] += "\ndef extra(q):\n    y = q.fetch()\n    sys_exec(y)\n"
		s.SpliceSource(victim, files[victim])
	}
	res, st := s.Relearn()
	if st.Delta.FellBack || st.Delta.SpansRebuilt < 3 || st.Delta.SpansReused == 0 {
		t.Fatalf("delta build: %+v", st.Delta)
	}

	fe := core.AnalyzeFiles(files, core.Config{Workers: 1})
	ub := propgraph.NewUnionBuilder()
	for _, g := range fe.Graphs {
		ub.Add(g)
	}
	if len(ub.Graph().Events) < 4096 {
		t.Fatalf("corpus has %d events, too few to fan the union out", len(ub.Graph().Events))
	}
	if !bytes.Equal(res.Graph.AppendBinary(nil), ub.Graph().AppendBinary(nil)) {
		t.Fatal("session union differs from a one-at-a-time UnionBuilder")
	}
	full := constraints.Build(ub.Graph(), seed, constraints.Options{Workers: 1})
	if !reflect.DeepEqual(res.System.Vars, full.Vars) ||
		!reflect.DeepEqual(res.System.Problem.Constraints, full.Problem.Constraints) {
		t.Fatalf("session system (%d constraints) differs from the from-scratch build (%d)",
			len(res.System.Problem.Constraints), len(full.Problem.Constraints))
	}
}

// TestSessionWarmMatchesCold: re-learning with no corpus change reuses
// every span, warm-starts from the optimum, and lands on the same
// store — the warm/cold golden test at the session level.
func TestSessionWarmMatchesCold(t *testing.T) {
	files, _ := testCorpus(t, 10, 21)
	s := sessionFrom(t, files, core.Config{Workers: 1})
	res1, _ := s.Relearn()
	cold := storeBytes(t, s.LearnedSpec())

	res2, st := s.Relearn()
	if !st.WarmStarted {
		t.Fatal("second relearn did not warm-start")
	}
	if st.Delta.SpansReused != s.Len() || st.Delta.SpansRebuilt != 0 {
		t.Fatalf("no-change relearn reused %d/%d spans", st.Delta.SpansReused, s.Len())
	}
	if res2.SolverEpochs > res1.SolverEpochs {
		t.Fatalf("warm solve took %d epochs, cold took %d", res2.SolverEpochs, res1.SolverEpochs)
	}
	if got := storeBytes(t, s.LearnedSpec()); !bytes.Equal(got, cold) {
		t.Fatal("warm store differs from cold store")
	}
}

// TestRelearnLogSaysWhyTheSolveStopped: the incr.relearn line carries the
// solver's stop reason, and a solve cut off by the epoch cap says so.
func TestRelearnLogSaysWhyTheSolveStopped(t *testing.T) {
	files, _ := testCorpus(t, 60, 21)
	for want, solver := range map[lp.StopReason]lp.Options{
		lp.StopPlateau: {},
		lp.StopCap:     {Iterations: 3},
	} {
		var log bytes.Buffer
		s := sessionFrom(t, files, core.Config{Workers: 1, Solver: solver, Log: obs.NewLogger(&log)})
		res, _ := s.Relearn()
		if res.SolverStop != want {
			t.Errorf("solve stopped on %v after %d epochs, want %v", res.SolverStop, res.SolverEpochs, want)
		}
		if line := "stop=" + string(want); !strings.Contains(log.String(), "incr.relearn") || strings.Count(log.String(), line) != 2 {
			t.Errorf("want %q on the solver.done and incr.relearn lines:\n%s", line, log.String())
		}
	}
}

// TestRetractSoleOwnerSymbol: retracting the only file that mentions a
// symbol must drop its variables cleanly — the result matches a
// from-scratch run over the remaining files.
func TestRetractSoleOwnerSymbol(t *testing.T) {
	files, _ := testCorpus(t, 8, 5)
	const lone = "zz_lone.py"
	files[lone] = "def only_here(a):\n    b = a.lone_fetch()\n    sys_exec(b)\n"

	s := sessionFrom(t, files, core.Config{Workers: 1})
	s.Relearn()

	if !s.Retract(lone) {
		t.Fatal("retract of resident file reported absent")
	}
	if s.Retract(lone) {
		t.Fatal("second retract of the same file reported present")
	}
	delete(files, lone)
	s.Relearn()
	if got, want := storeBytes(t, s.LearnedSpec()), storeBytes(t, scratchLearn(t, files, 1)); !bytes.Equal(got, want) {
		t.Fatal("store after sole-owner retract differs from from-scratch")
	}
}

// TestRenameFile: a rename is retract + splice of the same graph under
// a new name; the learned store matches a from-scratch run over the
// renamed corpus.
func TestRenameFile(t *testing.T) {
	files, names := testCorpus(t, 8, 9)
	old, renamed := names[2], "renamed_"+names[2]

	s := sessionFrom(t, files, core.Config{Workers: 1})
	s.Relearn()

	enc := s.EncodedGraph(old)
	g, rest, err := propgraph.DecodeBinary(enc)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode stored graph: %v (rest %d)", err, len(rest))
	}
	s.Retract(old)
	s.Splice(renamed, g)
	s.Relearn()

	mutated := make(map[string]string, len(files))
	for n, src := range files {
		mutated[n] = src
	}
	mutated[renamed] = mutated[old]
	delete(mutated, old)
	// The spliced graph still carries the old file name in its events, so
	// compare against the analyzed-under-old-name graphs: re-learning is
	// representation-level, and reps do not include file names, so the
	// stores still match.
	if !specio.Equal(s.LearnedSpec(), scratchLearn(t, mutated, 1)) {
		t.Fatal("store after rename not Equal to from-scratch over renamed corpus")
	}
}

// TestEmptyFileSplice: a file with no events contributes an empty span
// and must not disturb the result.
func TestEmptyFileSplice(t *testing.T) {
	files, _ := testCorpus(t, 6, 13)
	s := sessionFrom(t, files, core.Config{Workers: 1})
	s.Relearn()

	files["empty.py"] = ""
	s.SpliceSource("empty.py", "")
	_, st := s.Relearn()
	if st.Delta.FellBack {
		t.Fatal("empty-file splice fell back")
	}
	if got, want := storeBytes(t, s.LearnedSpec()), storeBytes(t, scratchLearn(t, files, 1)); !bytes.Equal(got, want) {
		t.Fatal("store after empty-file splice differs from from-scratch")
	}
}

// TestRetractThenIdenticalSplice: retract followed by a splice of the
// byte-identical graph restores the exact union — encoded graph bytes
// unchanged — and the relearn reuses every span.
func TestRetractThenIdenticalSplice(t *testing.T) {
	files, names := testCorpus(t, 6, 17)
	target := names[3]

	s := sessionFrom(t, files, core.Config{Workers: 1})
	res1, _ := s.Relearn()
	before := res1.Graph.AppendBinary(nil)
	encBefore := append([]byte(nil), s.EncodedGraph(target)...)

	g, _, err := propgraph.DecodeBinary(encBefore)
	if err != nil {
		t.Fatalf("decode stored graph: %v", err)
	}
	s.Retract(target)
	s.Splice(target, g)
	if got := s.EncodedGraph(target); !bytes.Equal(got, encBefore) {
		t.Fatal("re-spliced graph encodes differently")
	}

	res2, st := s.Relearn()
	if got := res2.Graph.AppendBinary(nil); !bytes.Equal(got, before) {
		t.Fatal("union encoding changed across retract+identical splice")
	}
	if st.Delta.SpansReused != s.Len() {
		t.Fatalf("identical re-splice reused %d/%d spans", st.Delta.SpansReused, s.Len())
	}
	// Two calls, no change: the file is what the last Relearn saw.
	if st.FilesChanged != 0 || st.UnionRebuilt != "" {
		t.Fatalf("retract + identical splice: FilesChanged=%d, union rebuilt %q; want 0 and a patch of nothing",
			st.FilesChanged, st.UnionRebuilt)
	}

	// Splicing the identical graph onto a resident file is a recorded
	// no-op: the next stats must not count it as changed.
	g2, _, _ := propgraph.DecodeBinary(encBefore)
	s.Splice(target, g2)
	_, st3 := s.Relearn()
	if st3.FilesChanged != 0 {
		t.Fatalf("identical splice counted as a change (FilesChanged=%d)", st3.FilesChanged)
	}

	// Spliced twice with new content before one Relearn: one file changed.
	g3, _, _ := propgraph.DecodeBinary(s.EncodedGraph(names[0]))
	g4, _, _ := propgraph.DecodeBinary(s.EncodedGraph(names[1]))
	s.Splice(target, g3)
	s.Splice(target, g4)
	if _, st4 := s.Relearn(); st4.FilesChanged != 1 {
		t.Fatalf("a file spliced twice counted as %d changes", st4.FilesChanged)
	}
}

// TestSessionPinOverridesLearning: pinning a learned (rep, role) to 0
// removes it from the store; pinning back to 1 restores it.
func TestSessionPinOverridesLearning(t *testing.T) {
	files, _ := testCorpus(t, 20, 1)
	s := sessionFrom(t, files, core.Config{Workers: 1})
	res, _ := s.Relearn()

	learned := res.LearnedEntries(s.Seed())
	if len(learned) == 0 {
		t.Skip("corpus learned no non-seed entries")
	}
	target := learned[0]
	role := target.Role

	s.Pin(target.Rep, role, 0)
	s.Relearn()
	if v, ok := s.Score(target.Rep, role); !ok || v != 0 {
		t.Fatalf("pinned-to-0 score = %v, %v", v, ok)
	}
	for _, e := range s.Result().LearnedEntries(s.Seed()) {
		if e.Rep == target.Rep && e.Role == target.Role {
			t.Fatalf("rejected entry %v still in learned set", e)
		}
	}

	if !s.Unpin(target.Rep, role) {
		t.Fatal("unpin of active pin reported absent")
	}
	s.Pin(target.Rep, role, 1)
	if s.Pins() != 1 {
		t.Fatalf("Pins() = %d, want 1", s.Pins())
	}
	s.Relearn()
	found := false
	for _, e := range s.Result().LearnedEntries(s.Seed()) {
		if e.Rep == target.Rep && e.Role == target.Role {
			found = true
		}
	}
	if !found {
		t.Fatal("pinned-to-1 entry missing from learned set")
	}
}

// TestSessionPinRefusesSeed: the seed is ground truth. A verdict rejecting
// a sink the seed assigns records nothing, so the re-learn is the
// un-pinned run's: same solution, no pins, same store.
func TestSessionPinRefusesSeed(t *testing.T) {
	files, _ := testCorpus(t, 20, 1)
	cfg := core.Config{Workers: 1}
	plain := sessionFrom(t, files, cfg)
	want, _ := plain.Relearn()

	var sink string
	for _, rep := range plain.Seed().Sinks {
		if _, ok := plain.Score(rep, propgraph.Sink); ok {
			sink = rep
			break
		}
	}
	if sink == "" {
		t.Fatal("no seed sink has a variable in this corpus")
	}

	s := sessionFrom(t, files, cfg)
	s.Pin(sink, propgraph.Sink, 0)
	got, _ := s.Relearn()
	if s.Pins() != 0 {
		t.Errorf("Pins() = %d after a verdict on seed sink %s, want 0", s.Pins(), sink)
	}
	if !reflect.DeepEqual(got.Solution, want.Solution) {
		t.Errorf("rejecting seed sink %s moved the solution", sink)
	}
	if !bytes.Equal(storeBytes(t, s.LearnedSpec()), storeBytes(t, plain.LearnedSpec())) {
		t.Errorf("rejecting seed sink %s moved the store", sink)
	}
}

// TestSessionSaveLoadRoundTrip: a persisted session resumes with the
// same corpus, solution, and pins — the first relearn after Load
// warm-starts and reproduces the pre-save store byte for byte.
func TestSessionSaveLoadRoundTrip(t *testing.T) {
	files, _ := testCorpus(t, 10, 31)
	cfg := core.Config{Workers: 1}
	s := sessionFrom(t, files, cfg)
	res, _ := s.Relearn()
	if entries := res.LearnedEntries(s.Seed()); len(entries) > 0 {
		s.Pin(entries[0].Rep, entries[0].Role, 0)
		s.Relearn()
	}
	want := storeBytes(t, s.LearnedSpec())

	dir := t.TempDir()
	if err := s.SaveDir(dir); err != nil {
		t.Fatalf("save: %v", err)
	}

	s2, err := incr.LoadDir(dir, corpus.ExperimentSeed(), cfg)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if s2.Len() != s.Len() || s2.Pins() != s.Pins() {
		t.Fatalf("restored session has %d files / %d pins, want %d / %d",
			s2.Len(), s2.Pins(), s.Len(), s.Pins())
	}
	for _, name := range s.Files() {
		if !bytes.Equal(s2.EncodedGraph(name), s.EncodedGraph(name)) {
			t.Fatalf("restored graph %q differs", name)
		}
		h1, ok1 := s.FileHash(name)
		h2, ok2 := s2.FileHash(name)
		if ok1 != ok2 || h1 != h2 {
			t.Fatalf("restored content hash %q differs", name)
		}
	}

	_, st := s2.Relearn()
	if !st.WarmStarted {
		t.Fatal("restored session did not warm-start")
	}
	if got := storeBytes(t, s2.LearnedSpec()); !bytes.Equal(got, want) {
		t.Fatal("restored session store differs from pre-save store")
	}
}

// TestSessionFlowCachePersistence: SaveDir writes the flow-constraint
// cache beside the state, and a restored session's first Relearn reuses
// every unchanged file's flow block — cross-process pass-4 warmth. A
// deleted flowcache.bin degrades to a rebuild, never a failure.
func TestSessionFlowCachePersistence(t *testing.T) {
	files, _ := testCorpus(t, 10, 41)
	cfg := core.Config{Workers: 1}
	s := sessionFrom(t, files, cfg)
	s.Relearn() // populates the in-memory flow cache
	want := storeBytes(t, s.LearnedSpec())

	dir := t.TempDir()
	if err := s.SaveDir(dir); err != nil {
		t.Fatalf("save: %v", err)
	}
	if fi, err := os.Stat(filepath.Join(dir, incr.FlowCacheFile)); err != nil || fi.Size() == 0 {
		t.Fatalf("SaveDir did not write %s: %v", incr.FlowCacheFile, err)
	}

	s2, err := incr.LoadDir(dir, corpus.ExperimentSeed(), cfg)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	_, st := s2.Relearn()
	if st.Delta.SpansReused != s2.Len() || st.Delta.SpansRebuilt != 0 {
		t.Fatalf("restored relearn reused %d/%d spans, rebuilt %d — flow cache did not survive",
			st.Delta.SpansReused, s2.Len(), st.Delta.SpansRebuilt)
	}
	if got := storeBytes(t, s2.LearnedSpec()); !bytes.Equal(got, want) {
		t.Fatal("flow-cache-warm store differs from pre-save store")
	}

	// Without the sidecar file the session still loads; the first relearn
	// just pays the rebuild.
	if err := os.Remove(filepath.Join(dir, incr.FlowCacheFile)); err != nil {
		t.Fatal(err)
	}
	s3, err := incr.LoadDir(dir, corpus.ExperimentSeed(), cfg)
	if err != nil {
		t.Fatalf("load without flow cache: %v", err)
	}
	_, st3 := s3.Relearn()
	if st3.Delta.SpansReused != 0 {
		t.Fatalf("relearn without the cache file reused %d spans, want 0", st3.Delta.SpansReused)
	}
	if got := storeBytes(t, s3.LearnedSpec()); !bytes.Equal(got, want) {
		t.Fatal("cold-cache store differs from pre-save store")
	}
}

// TestSessionLoadRejects: a state saved under another seed is an error
// (the caller cold-starts). Corruption, truncation, version, analyzer
// and knob skew are held by the rejection matrix in internal/envelope.
func TestSessionLoadRejects(t *testing.T) {
	files, _ := testCorpus(t, 4, 3)
	cfg := core.Config{Workers: 1}
	s := sessionFrom(t, files, cfg)
	s.Relearn()
	dir := t.TempDir()
	if err := s.SaveDir(dir); err != nil {
		t.Fatalf("save: %v", err)
	}
	if _, err := incr.LoadDir(dir, corpus.ExperimentSeed(), cfg); err != nil {
		t.Fatalf("clean load failed: %v", err)
	}

	other := spec.New()
	other.Add(propgraph.Source, "weird.seed")
	if _, err := incr.LoadDir(dir, other, cfg); err == nil {
		t.Fatal("load with different seed succeeded")
	}
}
