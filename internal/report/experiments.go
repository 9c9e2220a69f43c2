// Package report drives the paper's experiments end-to-end and renders
// each table and figure of the evaluation section (§7) over the synthetic
// corpus. Every experiment returns structured data plus a Render method,
// so the same code backs cmd/benchtables, the examples, and the
// testing.B benchmarks.
package report

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
	"seldon/internal/taint"
)

// Experiments carries the shared state of one evaluation run: the
// generated corpus, its per-file propagation graphs, the global graph,
// and the Seldon learning result, all computed lazily and cached.
type Experiments struct {
	CorpusCfg corpus.Config
	LearnCfg  core.Config
	SampleN   int   // per-role precision sample size (paper: 50)
	ReportN   int   // taint-report sample size (paper: 25)
	EvalSeed  int64 // RNG seed for sampling

	corpus  *corpus.Corpus
	seed    *spec.Spec
	graphs  map[string]*propgraph.Graph
	union   *propgraph.Graph
	learned *core.Result
}

// New prepares an experiment context (nothing is computed yet).
func New(cfg corpus.Config) *Experiments {
	return &Experiments{CorpusCfg: cfg, SampleN: 50, ReportN: 25, EvalSeed: 1}
}

// Corpus returns the generated corpus.
func (e *Experiments) Corpus() *corpus.Corpus {
	if e.corpus == nil {
		e.corpus = corpus.Generate(e.CorpusCfg)
	}
	return e.corpus
}

// Seed returns the experiment seed specification.
func (e *Experiments) Seed() *spec.Spec {
	if e.seed == nil {
		e.seed = corpus.ExperimentSeed()
	}
	return e.seed
}

// Graphs returns per-file propagation graphs.
func (e *Experiments) Graphs() map[string]*propgraph.Graph {
	if e.graphs == nil {
		fe := core.AnalyzeFiles(e.Corpus().FileMap(), e.LearnCfg)
		e.graphs = make(map[string]*propgraph.Graph, len(fe.Names))
		for i, name := range fe.Names {
			e.graphs[name] = fe.Graphs[i]
		}
	}
	return e.graphs
}

// Union returns the global propagation graph of the corpus.
func (e *Experiments) Union() *propgraph.Graph {
	if e.union == nil {
		graphs := e.Graphs()
		names := make([]string, 0, len(graphs))
		for n := range graphs {
			names = append(names, n)
		}
		sort.Strings(names)
		ordered := make([]*propgraph.Graph, 0, len(names))
		for _, n := range names {
			ordered = append(ordered, graphs[n])
		}
		e.union = propgraph.Union(ordered...)
	}
	return e.union
}

// Learned returns the cached Seldon learning result over the full corpus.
func (e *Experiments) Learned() *core.Result {
	if e.learned == nil {
		e.learned = core.Learn(e.Union(), e.Seed(), e.LearnCfg)
	}
	return e.learned
}

// unionOf builds the global graph for a subset of files (by name).
func (e *Experiments) unionOf(files map[string]string) *propgraph.Graph {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	graphs := e.Graphs()
	ordered := make([]*propgraph.Graph, 0, len(names))
	for _, n := range names {
		if g, ok := graphs[n]; ok {
			ordered = append(ordered, g)
		}
	}
	return propgraph.Union(ordered...)
}

// table is a minimal text-table renderer.
type table struct {
	title string
	cols  []string
	rows  [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.cols))
	for i, c := range t.cols {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.cols)
	sep := make([]string, len(t.cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func fmtDuration(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// roleName gives the plural heading used in the paper's tables.
func roleName(r propgraph.Role) string {
	switch r {
	case propgraph.Source:
		return "Sources"
	case propgraph.Sanitizer:
		return "Sanitizers"
	case propgraph.Sink:
		return "Sinks"
	}
	return r.String()
}

// seedAndLearnedReports runs the taint analyzer over the whole corpus with
// the seed spec and with the learned spec.
func (e *Experiments) seedAndLearnedReports() (seedReports, learnedReports []taint.Report) {
	g := e.Union()
	seedReports = taint.Analyze(g, e.Seed())
	learnedReports = taint.Analyze(g, e.Learned().LearnedSpec(e.Seed()))
	return seedReports, learnedReports
}
