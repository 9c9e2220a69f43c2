package core

import (
	"strings"
	"testing"

	"seldon/internal/constraints"
	"seldon/internal/obs"
)

func TestLearnFromSourcesCountsParseErrors(t *testing.T) {
	files := tinyCorpus(3)
	files["broken.py"] = "def f(:\n    return 1\n"
	reg := obs.New()
	var logBuf strings.Builder
	cfg := Config{
		Constraints: constraints.Options{BackoffCutoff: 2},
		Metrics:     reg,
		Log:         obs.NewLogger(&logBuf),
	}
	res := LearnFromSources(files, tinySeed(), cfg)

	if res.ParseErrors != 1 {
		t.Fatalf("ParseErrors = %d, want 1", res.ParseErrors)
	}
	if len(res.ParseErrorFiles) != 1 || res.ParseErrorFiles[0] != "broken.py" {
		t.Fatalf("ParseErrorFiles = %v, want [broken.py]", res.ParseErrorFiles)
	}
	s := reg.Snapshot()
	if got := s.Counters[obs.CounterParseErrors]; got != 1 {
		t.Errorf("metrics %s = %d, want 1", obs.CounterParseErrors, got)
	}
	if got := s.Counters[obs.CounterFilesAnalyzed]; got != int64(len(files)) {
		t.Errorf("metrics %s = %d, want %d", obs.CounterFilesAnalyzed, got, len(files))
	}
	if !strings.Contains(logBuf.String(), "broken.py") {
		t.Errorf("verbose log does not name the failing file:\n%s", logBuf.String())
	}
}

func TestLearnFromSourcesRecordsAllStages(t *testing.T) {
	reg := obs.New()
	cfg := Config{
		Constraints: constraints.Options{BackoffCutoff: 2},
		Metrics:     reg,
	}
	res := LearnFromSources(tinyCorpus(3), tinySeed(), cfg)

	wantStages := []string{
		obs.StageParse, obs.StageDataflow, obs.StageUnion,
		obs.StageConstraints, obs.StageSolve, obs.StageSelect,
	}
	if len(res.Stages) != len(wantStages) {
		t.Fatalf("Stages = %v, want %d entries", res.Stages, len(wantStages))
	}
	s := reg.Snapshot()
	for i, name := range wantStages {
		if res.Stages[i].Name != name {
			t.Errorf("Stages[%d] = %s, want %s", i, res.Stages[i].Name, name)
		}
		if st, ok := s.Timers[name]; !ok || st.Count == 0 {
			t.Errorf("metrics timer %s missing or empty", name)
		}
	}
	if res.SolverEpochs <= 0 {
		t.Errorf("SolverEpochs = %d, want > 0", res.SolverEpochs)
	}
	trace := s.Traces[obs.TraceSolver]
	if len(trace) != res.SolverEpochs {
		t.Fatalf("convergence trace has %d points, solver ran %d epochs",
			len(trace), res.SolverEpochs)
	}
	for _, p := range trace {
		if _, ok := p.Values["objective"]; !ok {
			t.Fatalf("trace point missing objective: %+v", p)
		}
		if _, ok := p.Values["active"]; !ok {
			t.Fatalf("trace point missing active: %+v", p)
		}
	}
	nCons := float64(len(res.System.Problem.Constraints))
	if got := s.Gauges[obs.GaugeSolverConstraints]; got != nCons {
		t.Errorf("%s = %v, want %v", obs.GaugeSolverConstraints, got, nCons)
	}
	if got := s.Gauges[obs.GaugeSolverRows]; got < 1 || got > nCons {
		t.Errorf("%s = %v, want within [1, %v]", obs.GaugeSolverRows, got, nCons)
	}
	if got, want := s.Gauges[obs.GaugeSolverActive], trace[len(trace)-1].Values["active"]; got != want {
		t.Errorf("%s = %v, want the final epoch's active count %v", obs.GaugeSolverActive, got, want)
	}
	if _, ok := s.Gauges["constraints.vars"]; !ok {
		t.Errorf("constraint gauges not recorded")
	}
	if got := s.Counters["dataflow.modules"]; got != int64(2*3) {
		t.Errorf("dataflow.modules = %d, want 6", got)
	}
}

func TestNilTelemetryKeepsWorking(t *testing.T) {
	// The default path (no registry, no logger) must behave exactly as
	// before: stages recorded on the Result, nothing else touched.
	res := LearnFromSources(tinyCorpus(3), tinySeed(), Config{
		Constraints: constraints.Options{BackoffCutoff: 2},
	})
	if len(res.Stages) != 6 {
		t.Fatalf("Stages = %v, want 6 entries", res.Stages)
	}
	if res.StageTime(obs.StageSolve) < 0 {
		t.Errorf("negative solve time")
	}
	if res.ParseErrors != 0 {
		t.Errorf("ParseErrors = %d, want 0", res.ParseErrors)
	}
}
