package shard

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"seldon/internal/constraints"
	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/fpcache"
	"seldon/internal/propgraph"
	"seldon/internal/specio"
)

// TestMergeDeterminism is the subsystem's invariant as a unit test: for
// every shard count, with artifacts round-tripped through the wire
// format and ingested in shuffled order, the coordinator's merged graph
// is byte-identical to the single-process union of the whole corpus,
// and the manifest-derived corpus fingerprint equals the one computed
// from raw contents.
func TestMergeDeterminism(t *testing.T) {
	files := corpus.Generate(corpus.Config{Files: 60}).FileMap()

	fe := core.AnalyzeFiles(files, core.Config{Workers: 1})
	want := propgraph.Union(fe.Graphs...).AppendBinary(nil)
	wantFP := specio.Fingerprint(files)

	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 4, 7} {
		arts := make([]*Artifact, n)
		for i := 0; i < n; i++ {
			a := buildSlice(t, files, i, n)
			// Round-trip through the wire format so the test covers what a
			// coordinator actually sees, not in-process structs.
			decoded, err := streamDecode(a.Encode())
			if err != nil {
				t.Fatalf("n=%d slice %d: round-trip: %v", n, i, err)
			}
			arts[i] = decoded
		}
		rng.Shuffle(n, func(i, j int) { arts[i], arts[j] = arts[j], arts[i] })

		res, err := mergeAll(arts, MergeOptions{})
		if err != nil {
			t.Fatalf("n=%d: Merge: %v", n, err)
		}
		if got := res.Graph.AppendBinary(nil); !bytes.Equal(got, want) {
			t.Errorf("n=%d: merged graph differs from single-process union (%d vs %d bytes)",
				n, len(got), len(want))
		}
		if res.CorpusFingerprint != wantFP {
			t.Errorf("n=%d: fingerprint %s, want %s", n, res.CorpusFingerprint, wantFP)
		}
		if len(res.Files) != len(files) {
			t.Errorf("n=%d: %d files, want %d", n, len(res.Files), len(files))
		}
		if res.Slices != n {
			t.Errorf("n=%d: Slices = %d", n, res.Slices)
		}
	}
}

// TestSliceCountInvariance is the metamorphic form of the same invariant,
// with no single-process oracle in it: how many slices a corpus is cut
// into, and in what order their artifacts arrive, are not inputs of the
// merge. Workers cut by core.SliceFiles — the one slicer, for directories
// and generated corpora alike — and whatever the cut, the coordinator ends
// up with the same graph bytes and the same file spans. Contiguity is what
// it leans on: a slicer that hands a worker files out of sorted order, or
// two workers interleaved runs, fails here.
func TestSliceCountInvariance(t *testing.T) {
	files := corpus.Generate(corpus.Config{Files: 120}).FileMap()
	merged := func(n int, order []int) ([]byte, []constraints.Span) {
		t.Helper()
		m := NewMerger(MergeOptions{})
		for _, i := range order {
			a, _, err := Build(core.SliceFiles(files, i, n), i, n, core.Config{Workers: 1})
			if err == nil {
				a, err = streamDecode(a.Encode())
			}
			if err == nil {
				err = m.Commit(a)
			}
			if err != nil {
				t.Fatalf("%d slices, arrival %v, slice %d: %v", n, order, i, err)
			}
		}
		res, err := m.Finish()
		if err != nil {
			t.Fatalf("%d slices, arrival %v: %v", n, order, err)
		}
		return res.Graph.AppendBinary(nil), res.Spans
	}
	wantGraph, wantSpans := merged(1, []int{0})
	if len(wantSpans) != len(files) {
		t.Fatalf("one slice gave %d spans for %d files", len(wantSpans), len(files))
	}
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{2, 3, 7} {
		forward := make([]int, n)
		for i := range forward {
			forward[i] = i
		}
		backward := slices.Clone(forward)
		slices.Reverse(backward)
		for _, order := range [][]int{forward, backward, rng.Perm(n), rng.Perm(n)} {
			graph, spans := merged(n, order)
			if !bytes.Equal(graph, wantGraph) {
				t.Errorf("%d slices, arrival %v: merged graph is not the one-slice graph", n, order)
			}
			if !reflect.DeepEqual(spans, wantSpans) {
				t.Errorf("%d slices, arrival %v: spans are not the one-slice spans", n, order)
			}
		}
	}
}

// TestMergeLearnsIdentically pushes one shard count all the way through
// learning: the predictions from the merged graph equal those from the
// single-process pipeline, entry for entry and score for score.
func TestMergeLearnsIdentically(t *testing.T) {
	files := corpus.Generate(corpus.Config{Files: 40}).FileMap()
	seed := corpus.ExperimentSeed()
	cfg := core.Config{Threshold: 0.1, Workers: 1}

	single := core.LearnFromSources(files, seed, cfg)

	arts := make([]*Artifact, 3)
	for i := range arts {
		arts[i] = buildSlice(t, files, i, 3)
	}
	res, err := mergeAll([]*Artifact{arts[2], arts[0], arts[1]}, MergeOptions{})
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	dist := core.Learn(res.Graph, seed, cfg)

	a, b := single.LearnedSpec(seed), dist.LearnedSpec(seed)
	if !specio.Equal(a, b) {
		t.Errorf("learned specs differ:\nsingle:      %+v\ndistributed: %+v", a.Entries(), b.Entries())
	}
}

// TestMergeParseErrors: parse failures recorded in shard manifests
// surface in the merge result exactly as a single-process run reports
// them.
func TestMergeParseErrors(t *testing.T) {
	files := corpus.Generate(corpus.Config{Files: 20}).FileMap()
	files["zzz_broken.py"] = "def broken(:\n"

	fe := core.AnalyzeFiles(files, core.Config{Workers: 1})
	if len(fe.ParseErrorFiles) == 0 {
		t.Fatal("fixture did not produce a parse error")
	}

	arts := []*Artifact{buildSlice(t, files, 0, 2), buildSlice(t, files, 1, 2)}
	res, err := mergeAll(arts, MergeOptions{})
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	got := fpcache.ParseErrorFiles(slices.Values(res.Files))
	if !slices.Equal(got, fe.ParseErrorFiles) {
		t.Errorf("merge reports parse errors in %v, single-process in %v", got, fe.ParseErrorFiles)
	}
	if len(got) == 0 || got[len(got)-1] != "zzz_broken.py" {
		t.Errorf("ParseErrorFiles = %v, want trailing zzz_broken.py", got)
	}
}

// TestBuildIsAFunctionOfItsSlice: an artifact records only what its
// files determine, so two builds of one slice encode to the same bytes.
func TestBuildIsAFunctionOfItsSlice(t *testing.T) {
	files := corpus.Generate(corpus.Config{Files: 12, Seed: 3}).FileMap()
	files["broken.py"] = "def broken(:\n    pass\n"
	first := buildSlice(t, files, 1, 2).Encode()
	if !bytes.Equal(buildSlice(t, files, 1, 2).Encode(), first) {
		t.Fatal("two builds of one slice encode differently")
	}
}
