package corpus

import (
	"strings"
	"testing"

	"seldon/internal/dataflow"
	"seldon/internal/propgraph"
	"seldon/internal/pyparse"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Files: 24, Seed: 7})
	b := Generate(Config{Files: 24, Seed: 7})
	if len(a.Files) != len(b.Files) {
		t.Fatal("file counts differ")
	}
	for i := range a.Files {
		if a.Files[i] != b.Files[i] {
			t.Fatalf("file %d differs", i)
		}
	}
	if len(a.Flows) != len(b.Flows) {
		t.Fatal("flow counts differ")
	}
	c := Generate(Config{Files: 24, Seed: 8})
	same := true
	for i := range a.Files {
		if i < len(c.Files) && a.Files[i] != c.Files[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical corpora")
	}
}

func TestGeneratedFilesParse(t *testing.T) {
	c := Generate(Config{Files: 60, Seed: 3})
	if len(c.Files) != 60 {
		t.Fatalf("files = %d", len(c.Files))
	}
	for _, f := range c.Files {
		if _, err := pyparse.Parse(f.Name, f.Source); err != nil {
			t.Fatalf("generated file %s does not parse:\n%s\n%v", f.Name, f.Source, err)
		}
	}
}

func TestGeneratedFlowsAppearInGraphs(t *testing.T) {
	c := Generate(Config{Files: 40, Seed: 5})
	// For every recorded flow, the file's propagation graph must contain
	// an event with the flow's source rep and one with the sink rep.
	byFile := c.FileMap()
	graphs := make(map[string]*propgraph.Graph)
	for name, src := range byFile {
		g, err := dataflow.AnalyzeSource(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		graphs[name] = g
	}
	hasRep := func(g *propgraph.Graph, rep string) bool {
		for id := range g.Events {
			for _, r := range g.Reps(id) {
				if r == rep {
					return true
				}
			}
		}
		return false
	}
	for _, fl := range c.Flows {
		g := graphs[fl.File]
		if g == nil {
			t.Fatalf("flow references unknown file %s", fl.File)
		}
		if !hasRep(g, fl.SourceRep) {
			t.Errorf("%s: source rep %q missing from graph", fl.File, fl.SourceRep)
		}
		if !hasRep(g, fl.SinkRep) {
			t.Errorf("%s: sink rep %q missing from graph", fl.File, fl.SinkRep)
		}
		if fl.Sanitized && !hasRep(g, fl.SanitizerRep) {
			t.Errorf("%s: sanitizer rep %q missing from graph", fl.File, fl.SanitizerRep)
		}
	}
}

func TestTruthOracle(t *testing.T) {
	tr := NewTruth()
	if !tr.HasRole("flask.request.args.get()", propgraph.Source) {
		t.Error("args.get should be a true source")
	}
	// Suffixes carry the role too.
	if !tr.HasRole("request.args.get()", propgraph.Source) {
		t.Error("suffix rep should be a true source")
	}
	if !tr.HasRole("htmlguard.scrub()", propgraph.Sanitizer) {
		t.Error("scrub should be a true sanitizer")
	}
	if tr.HasRole("textutil.titlecase()", propgraph.Source) {
		t.Error("noise API must have no role")
	}
	if !tr.Known("textutil.titlecase()") {
		t.Error("noise API should still be known")
	}
	if tr.Known("completely.made.up()") {
		t.Error("unknown rep must not be known")
	}
}

func TestSeedSplit(t *testing.T) {
	srcs, sans, snks := SeededReps()
	if len(srcs) == 0 || len(sans) == 0 || len(snks) == 0 {
		t.Fatal("empty seeded reps")
	}
	learnable := LearnableReps()
	if len(learnable) == 0 {
		t.Fatal("no learnable reps")
	}
	for rep := range learnable {
		for _, s := range srcs {
			if s == rep {
				t.Errorf("%s is both seeded and learnable", rep)
			}
		}
	}
	tr := NewTruth()
	for rep, role := range learnable {
		if !tr.HasRole(rep, role) {
			t.Errorf("learnable %s lacks its truth role", rep)
		}
	}
}

func TestExperimentSeed(t *testing.T) {
	s := ExperimentSeed()
	if !s.RolesOf("flask.request.form.get()").Has(propgraph.Source) {
		t.Error("seed missing qualified source")
	}
	if !s.RolesOf("request.form.get()").Has(propgraph.Source) {
		t.Error("seed missing suffix source")
	}
	if s.RolesOf("htmlguard.scrub()") != 0 {
		t.Error("learnable API leaked into seed")
	}
	if !s.Blacklisted("flask.Flask().route()") {
		t.Error("route decorator should be blacklisted")
	}
}

func TestFlowStatisticsRoughlyMatchRates(t *testing.T) {
	c := Generate(Config{Files: 300, Seed: 11})
	san := 0
	for _, f := range c.Flows {
		if f.Sanitized {
			san++
		}
	}
	rate := float64(san) / float64(len(c.Flows))
	if rate < 0.5 || rate > 0.8 {
		t.Errorf("sanitized rate = %v, want ~0.65", rate)
	}
}

func TestProjectPartitioning(t *testing.T) {
	c := Generate(Config{Files: 32, Seed: 2})
	projects := c.Projects()
	if len(projects) != 4 {
		t.Fatalf("projects = %v", projects)
	}
	total := 0
	for _, p := range projects {
		files := c.ProjectFiles(p)
		total += len(files)
		for name := range files {
			if !strings.HasPrefix(name, p+"/") {
				t.Errorf("file %s not under project %s", name, p)
			}
		}
	}
	if total != 32 {
		t.Errorf("files across projects = %d", total)
	}
}

func TestWrongParamFlowsExist(t *testing.T) {
	c := Generate(Config{Files: 300, Seed: 13})
	found := false
	for _, f := range c.Flows {
		if f.WrongParam {
			found = true
			if f.Sanitized || f.Exploitable {
				t.Error("wrong-param flow must be neither sanitized nor exploitable")
			}
		}
	}
	if !found {
		t.Error("no wrong-param flows generated")
	}
}

func TestDjangoHandlersGenerated(t *testing.T) {
	c := Generate(Config{Files: 200, Seed: 9})
	found := false
	for _, f := range c.Flows {
		if strings.HasPrefix(f.SourceRep, "request.") {
			found = true
		}
	}
	if !found {
		t.Fatal("no Django-style flows generated")
	}
	// Views must parse and produce param-rooted source events.
	tr := c.Truth
	if !tr.HasRole("request.GET.get()", propgraph.Source) {
		t.Error("request.GET.get() should be a true source")
	}
	if !tr.HasRole("profile_view_0(param request)", propgraph.Source) {
		t.Error("view request param should be a true source via pattern")
	}
	if !tr.HasRole("profile_view_0(param request).GET.get()", propgraph.Source) {
		t.Error("param-rooted read should be a true source via pattern")
	}
	if tr.HasRole("profile_view_0(param request)", propgraph.Sink) {
		t.Error("pattern must grant only the source role")
	}
}
