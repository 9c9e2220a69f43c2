package seldon_test

import (
	"bytes"
	"testing"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/dataflow"
	"seldon/internal/eval"
	"seldon/internal/propgraph"
	"seldon/internal/pyparse"
	"seldon/internal/spec"
	"seldon/internal/taint"
)

// TestEndToEndPipeline drives the full production flow the binaries
// compose: generate a corpus, extract per-file propagation graphs,
// serialize and reload the union (the seldon graph hand-off), learn
// specifications, persist and reload them (the seldon learn -out / seldon check
// -spec hand-off), run the taint analyzer, and classify the reports.
func TestEndToEndPipeline(t *testing.T) {
	c := corpus.Generate(corpus.Config{Files: 160, Seed: 21})
	seed := corpus.ExperimentSeed()

	// Extraction phase.
	var graphs []*propgraph.Graph
	for _, f := range c.Files {
		mod, err := pyparse.Parse(f.Name, f.Source)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		graphs = append(graphs, dataflow.AnalyzeModule(mod, dataflow.Options{}))
	}
	union := propgraph.Union(graphs...)

	// Serialization hand-off.
	var buf bytes.Buffer
	if err := union.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := propgraph.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(reloaded.Events) != len(union.Events) || reloaded.NumEdges() != union.NumEdges() {
		t.Fatalf("serialization changed the graph: %d/%d events, %d/%d edges",
			len(reloaded.Events), len(union.Events), reloaded.NumEdges(), union.NumEdges())
	}

	// Learning phase, over the RELOADED graph.
	res := core.Learn(reloaded, seed, core.Config{})
	entries := res.LearnedEntries(seed)
	if len(entries) == 0 {
		t.Fatal("nothing learned")
	}

	// Specification hand-off through the textual format.
	merged := res.LearnedSpec(seed)
	parsed, err := spec.Parse(merged.Format())
	if err != nil {
		t.Fatalf("spec round trip: %v", err)
	}
	if parsed.Len() != merged.Len() {
		t.Fatalf("spec round trip lost entries: %d vs %d", parsed.Len(), merged.Len())
	}

	// Analysis phase with the reloaded spec on the reloaded graph.
	reports := taint.Analyze(reloaded, parsed)
	if len(reports) == 0 {
		t.Fatal("no taint reports")
	}

	// Classification: the learned spec must surface true vulnerabilities.
	counts := eval.ClassifySample(reports, c.Flows, c.Truth, 25, 1)
	if counts[eval.TrueVulnerability] == 0 {
		t.Errorf("no true vulnerabilities in sample: %v", counts)
	}

	// Learned specs must be dominated by true roles.
	pr := eval.SamplePrecision(entries, c.Truth, 50, 1)
	if p := pr.Overall().Precision(); p < 0.5 {
		t.Errorf("overall precision = %v, want >= 0.5", p)
	}
}

// TestPipelineDeterminism re-runs the full pipeline and requires
// bit-identical outcomes.
func TestPipelineDeterminism(t *testing.T) {
	run := func() (int, int, float64) {
		c := corpus.Generate(corpus.Config{Files: 80, Seed: 5})
		seed := corpus.ExperimentSeed()
		res := core.LearnFromSources(c.FileMap(), seed, core.Config{})
		entries := res.LearnedEntries(seed)
		var graphs []*propgraph.Graph
		for _, f := range c.Files {
			g, _ := dataflow.AnalyzeSource(f.Name, f.Source)
			graphs = append(graphs, g)
		}
		reports := taint.Analyze(propgraph.Union(graphs...), res.LearnedSpec(seed))
		score := 0.0
		for _, e := range entries {
			score += e.Score
		}
		return len(entries), len(reports), score
	}
	e1, r1, s1 := run()
	e2, r2, s2 := run()
	if e1 != e2 || r1 != r2 || s1 != s2 {
		t.Errorf("pipeline not deterministic: (%d,%d,%v) vs (%d,%d,%v)",
			e1, r1, s1, e2, r2, s2)
	}
}
