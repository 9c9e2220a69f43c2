package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"seldon/internal/constraints"
	"seldon/internal/obs"
	"seldon/internal/spec"
	"seldon/internal/specio"
)

// parallelCorpus is tinyCorpus plus a file that fails to parse, so the
// determinism checks also cover the parse-error path.
func parallelCorpus() map[string]string {
	files := tinyCorpus(8)
	files["broken.py"] = "def broken(:\n    return ???\n"
	return files
}

// TestLearnFromSourcesDeterministicAcrossWorkers is the tentpole's
// determinism guarantee: every observable output of a learning run must be
// byte-identical at any worker count.
func TestLearnFromSourcesDeterministicAcrossWorkers(t *testing.T) {
	files := parallelCorpus()
	cfg := Config{Constraints: constraints.Options{BackoffCutoff: 2}, Workers: 1}
	base := LearnFromSources(files, tinySeed(), cfg)
	var baseGraph bytes.Buffer
	if err := base.Graph.Encode(&baseGraph); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := cfg
			cfg.Workers = workers
			res := LearnFromSources(files, tinySeed(), cfg)
			if !reflect.DeepEqual(res.Predictions, base.Predictions) {
				t.Errorf("predictions differ:\n got %+v\nwant %+v", res.Predictions, base.Predictions)
			}
			if !reflect.DeepEqual(res.ParseErrorFiles, base.ParseErrorFiles) {
				t.Errorf("parse-error files = %v, want %v", res.ParseErrorFiles, base.ParseErrorFiles)
			}
			if res.SolverEpochs != base.SolverEpochs {
				t.Errorf("solver epochs = %d, want %d", res.SolverEpochs, base.SolverEpochs)
			}
			if len(res.Solution) != len(base.Solution) {
				t.Fatalf("solution size = %d, want %d", len(res.Solution), len(base.Solution))
			}
			for i := range res.Solution {
				if math.Float64bits(res.Solution[i]) != math.Float64bits(base.Solution[i]) {
					t.Fatalf("solution[%d] = %v, want %v (bitwise)", i, res.Solution[i], base.Solution[i])
				}
			}
			var g bytes.Buffer
			if err := res.Graph.Encode(&g); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g.Bytes(), baseGraph.Bytes()) {
				t.Error("graph encodings differ")
			}
		})
	}
}

// TestLearnedStoreGoldenAcrossWorkers pins the end-to-end guarantee the
// interning rewrite must preserve: the learned specification and its
// persisted store encoding are byte-identical whether the pipeline runs
// sequentially or sharded (the golden output the pre-interning string
// path produced).
func TestLearnedStoreGoldenAcrossWorkers(t *testing.T) {
	files := parallelCorpus()
	reg := obs.New()
	run := func(workers int) ([]byte, *spec.Spec) {
		cfg := Config{Constraints: constraints.Options{BackoffCutoff: 2}, Workers: workers, Metrics: reg}
		res := LearnFromSources(files, tinySeed(), cfg)
		merged := res.LearnedSpec(tinySeed())
		meta := specio.Meta{
			CorpusFingerprint: specio.Fingerprint(files),
			CorpusFiles:       len(files),
			Generator:         "golden-test",
		}
		var buf bytes.Buffer
		if err := specio.Encode(&buf, merged, meta); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), merged
	}
	store1, spec1 := run(1)
	store4, spec4 := run(4)
	if !specio.Equal(spec1, spec4) {
		t.Error("learned specifications differ between workers 1 and 4")
	}
	if !bytes.Equal(store1, store4) {
		t.Error("persisted store bytes differ between workers 1 and 4")
	}
	if len(spec1.Sources)+len(spec1.Sanitizers)+len(spec1.Sinks) == 0 {
		t.Fatal("golden run learned nothing; fixture too weak to pin anything")
	}
	// The interning telemetry must reflect a real, shared symbol table.
	g := reg.Snapshot().Gauges
	if g[obs.GaugeInternSymbols] <= 0 {
		t.Errorf("%s = %v, want > 0", obs.GaugeInternSymbols, g[obs.GaugeInternSymbols])
	}
	if g[obs.GaugeInternBytesSaved] < 0 {
		t.Errorf("%s = %v, want >= 0", obs.GaugeInternBytesSaved, g[obs.GaugeInternBytesSaved])
	}
}

func TestAnalyzeFilesParallelTelemetry(t *testing.T) {
	reg := obs.New()
	fe := AnalyzeFiles(parallelCorpus(), Config{Workers: 4, Metrics: reg})
	if !reflect.DeepEqual(fe.ParseErrorFiles, []string{"broken.py"}) {
		t.Errorf("parse-error files = %v, want [broken.py]", fe.ParseErrorFiles)
	}
	if len(fe.ParseErrs) != 1 || fe.ParseErrs[0] == nil {
		t.Errorf("parse errs = %v, want one non-nil error", fe.ParseErrs)
	}
	if len(fe.Graphs) != len(fe.Names) {
		t.Fatalf("graphs = %d, names = %d", len(fe.Graphs), len(fe.Names))
	}
	snap := reg.Snapshot()
	if got := snap.Counters[obs.CounterParseErrors]; got != 1 {
		t.Errorf("%s = %d, want 1", obs.CounterParseErrors, got)
	}
	if got := snap.Counters[obs.CounterFilesAnalyzed]; got != int64(len(fe.Names)) {
		t.Errorf("%s = %d, want %d", obs.CounterFilesAnalyzed, got, len(fe.Names))
	}
	if got := snap.Gauges[obs.GaugeWorkers]; got != 4 {
		t.Errorf("%s = %v, want 4", obs.GaugeWorkers, got)
	}
	if _, ok := snap.Gauges[obs.GaugeFrontendSpeedup]; !ok {
		t.Errorf("%s gauge missing", obs.GaugeFrontendSpeedup)
	}
	if got := snap.Timers[obs.FileParse].Count; got != int64(len(fe.Names)) {
		t.Errorf("%s count = %d, want %d", obs.FileParse, got, len(fe.Names))
	}
	if got := snap.Timers[obs.StageFrontend].Count; got != 1 {
		t.Errorf("%s count = %d, want 1", obs.StageFrontend, got)
	}
}
