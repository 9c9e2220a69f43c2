package experiments

import (
	"fmt"
	"sort"
	"strings"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/eval"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
	"seldon/internal/taint"
)

// The evaluation protocol's constants: per-role precision sample size and
// taint-report sample size (the paper's 50 and 25), and the sampling seed.
const (
	sampleN  = 50
	reportN  = 25
	evalSeed = 1
)

// MerlinBudget is the factor budget standing in for the paper's 10-hour
// wall-clock timeout: runs that exceed it are reported as timed out.
const MerlinBudget = 250000

// Experiments carries the shared state of one evaluation run: the
// generated corpus, its per-file propagation graphs, the global graph,
// the Seldon learning result over it, and the taint reports under the
// seed and under the learned specification.
type Experiments struct {
	CorpusCfg corpus.Config
	Corpus    *corpus.Corpus
	Seed      *spec.Spec
	Union     *propgraph.Graph
	Learned   *core.Result

	graphs                      map[string]*propgraph.Graph
	seedReports, learnedReports []taint.Report
}

// New generates the corpus, analyzes it and learns on it.
func New(cfg corpus.Config) *Experiments {
	e := &Experiments{CorpusCfg: cfg, Corpus: corpus.Generate(cfg), Seed: corpus.ExperimentSeed()}
	fe := core.AnalyzeFiles(e.Corpus.FileMap(), core.Config{})
	e.graphs = make(map[string]*propgraph.Graph, len(fe.Names))
	for i, name := range fe.Names {
		e.graphs[name] = fe.Graphs[i]
	}
	e.Union = e.unionOf(e.Corpus.FileMap())
	e.Learned = core.Learn(e.Union, e.Seed, core.Config{})
	e.seedReports = taint.Analyze(e.Union, e.Seed)
	e.learnedReports = taint.Analyze(e.Union, e.Learned.LearnedSpec(e.Seed))
	return e
}

// unionOf builds the global graph for a subset of files (by name).
func (e *Experiments) unionOf(files map[string]string) *propgraph.Graph {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	ordered := make([]*propgraph.Graph, 0, len(names))
	for _, n := range names {
		if g, ok := e.graphs[n]; ok {
			ordered = append(ordered, g)
		}
	}
	return propgraph.Union(ordered...)
}

// smallCutoff is the backoff cutoff for learns on a single application:
// the default of 5 would drop most representations of a few dozen files.
func smallCutoff() core.Config {
	var cfg core.Config
	cfg.Constraints.BackoffCutoff = 2
	return cfg
}

// Table1 mirrors the paper's Table 1: candidates, average backoff options
// per event, constraints, and source files.
type Table1 struct {
	Candidates  int
	AvgBackoff  float64
	Constraints int
	SourceFiles int
}

// RunTable1 computes dataset statistics for the corpus.
func (e *Experiments) RunTable1() Table1 {
	res := e.Learned
	st := res.Graph.ComputeStats()
	return Table1{
		Candidates:  len(res.System.EventInfos),
		AvgBackoff:  st.AvgBackoff,
		Constraints: len(res.System.Problem.Constraints),
		SourceFiles: len(e.Corpus.Files),
	}
}

// Table2Row is one (app, graph type) Merlin run.
type Table2Row struct {
	App        string
	Lines      int
	GraphType  string // "Collapsed" | "Uncollapsed"
	Candidates [3]int
	Factors    int
	Sweeps     int  // belief-propagation sweeps run
	TimedOut   bool // factor budget exceeded (the paper's "> 10h")
}

// Table2 compares Merlin on a small and a large application.
type Table2 struct {
	Rows []Table2Row
	// SeldonLargeConstraints and SeldonLargeEpochs are Seldon's work on the
	// large app (the paper notes "< 20 seconds" vs Merlin's timeout).
	SeldonLargeConstraints int
	SeldonLargeEpochs      int
}

// smallApp returns the first project of the corpus (the paper's Flask
// API-sized repository) as name→source.
func (e *Experiments) smallApp() map[string]string {
	projects := e.Corpus.Projects()
	return e.Corpus.ProjectFiles(projects[0])
}

// largeApp returns several projects merged into one repository (the
// paper's Flask-Admin-sized application, ~10x the small app).
func (e *Experiments) largeApp() map[string]string {
	out := make(map[string]string)
	projects := e.Corpus.Projects()
	for _, p := range projects[:min(len(projects), 24)] {
		for name, src := range e.Corpus.ProjectFiles(p) {
			out[name] = src
		}
	}
	return out
}

func countLines(files map[string]string) int {
	n := 0
	for _, src := range files {
		n += strings.Count(src, "\n")
	}
	return n
}

// runMerlin executes one Merlin configuration.
func (e *Experiments) runMerlin(files map[string]string, collapsed bool) (*Result, Table2Row) {
	g := e.unionOf(files)
	graphType := "Uncollapsed"
	if collapsed {
		g = collapse(g)
		graphType = "Collapsed"
	}
	res, err := Infer(g, e.Seed, Options{MaxFactors: MerlinBudget})
	row := Table2Row{GraphType: graphType, Lines: countLines(files)}
	if res != nil {
		row.Candidates = res.Candidates
		row.Factors = res.NumFactors
		row.Sweeps = res.Iterations
	}
	if err != nil {
		row.TimedOut = true
		row.Factors = MerlinBudget
	}
	return res, row
}

// RunTable2 reproduces the Merlin scalability comparison: a small and a
// large application, each with collapsed and uncollapsed graphs.
func (e *Experiments) RunTable2() Table2 {
	small := e.smallApp()
	large := e.largeApp()
	var t Table2
	for _, cfg := range []struct {
		name      string
		files     map[string]string
		collapsed bool
	}{
		{"small-app", small, true},
		{"small-app", small, false},
		{"large-app", large, true},
		{"large-app", large, false},
	} {
		_, row := e.runMerlin(cfg.files, cfg.collapsed)
		row.App = cfg.name
		t.Rows = append(t.Rows, row)
	}
	res := core.LearnFromSources(large, e.Seed, smallCutoff())
	t.SeldonLargeConstraints = len(res.System.Problem.Constraints)
	t.SeldonLargeEpochs = res.SolverEpochs
	return t
}

// MerlinPrecisionRow is one role row of Table 3/4: how many predictions
// and how many of them the oracle confirms.
type MerlinPrecisionRow struct {
	Role            propgraph.Role
	Number, Correct int
}

// MerlinPrecision holds Table 3 (threshold) or Table 4 (top-k) results for
// both graph types.
type MerlinPrecision struct {
	Collapsed   []MerlinPrecisionRow
	Uncollapsed []MerlinPrecisionRow
}

// merlinPrecisionRows judges Merlin predictions against the truth oracle.
func merlinPrecisionRows(preds []Prediction, truth *corpus.Truth) []MerlinPrecisionRow {
	rows := make([]MerlinPrecisionRow, 0, 3)
	for _, role := range propgraph.Roles() {
		row := MerlinPrecisionRow{Role: role}
		for _, p := range preds {
			if p.Role != role {
				continue
			}
			row.Number++
			if truth.HasRole(p.Rep, role) {
				row.Correct++
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// merlinTable runs Merlin on the small app on both graph types and judges
// the newly inferred predictions pick selects.
func (e *Experiments) merlinTable(pick func(*Result) []Prediction) MerlinPrecision {
	run := func(collapsed bool) []MerlinPrecisionRow {
		res, row := e.runMerlin(e.smallApp(), collapsed)
		if row.TimedOut {
			return nil
		}
		return merlinPrecisionRows(pick(res), e.Corpus.Truth)
	}
	return MerlinPrecision{Collapsed: run(true), Uncollapsed: run(false)}
}

// RunTable3 evaluates Merlin on the small app at 95% confidence.
func (e *Experiments) RunTable3() MerlinPrecision {
	return e.merlinTable(func(res *Result) []Prediction { return unseeded(res.Predict(0.95), e) })
}

// RunTable4 evaluates Merlin's top-5 predictions per role.
func (e *Experiments) RunTable4() MerlinPrecision {
	return e.merlinTable(func(res *Result) []Prediction {
		var preds []Prediction
		for _, role := range propgraph.Roles() {
			top := unseeded(res.TopK(role, len(res.Marginals)), e)
			preds = append(preds, top[:min(len(top), 5)]...)
		}
		return preds
	})
}

// unseeded drops predictions whose rep is already in the seed — the paper
// evaluates newly inferred specifications.
func unseeded(preds []Prediction, e *Experiments) []Prediction {
	var out []Prediction
	for _, p := range preds {
		if !e.Seed.RolesOf(p.Rep).Has(p.Role) {
			out = append(out, p)
		}
	}
	return out
}

// Table5Row is one role row.
type Table5Row struct {
	Role      propgraph.Role
	Predicted int
	Precision float64
}

// Table5 mirrors the paper's Table 5, extended with exact catalog recall
// (computable here because the corpus oracle is exact).
type Table5 struct {
	Rows             []Table5Row
	OverallPredicted int
	OverallPrecision float64
	Candidates       int
	Recall           eval.Recall
}

// RunTable5 learns over the full corpus and estimates precision with the
// paper's protocol (random sample of sampleN predictions per role).
func (e *Experiments) RunTable5() Table5 {
	res := e.Learned
	entries := res.LearnedEntries(e.Seed)
	pr := eval.SamplePrecision(entries, e.Corpus.Truth, sampleN, evalSeed)
	counts := res.PredictedCounts()
	t := Table5{Candidates: len(res.System.EventInfos)}
	for _, role := range propgraph.Roles() {
		t.Rows = append(t.Rows, Table5Row{Role: role, Predicted: counts[role], Precision: pr.PerRole[role].Precision()})
		t.OverallPredicted += counts[role]
	}
	t.OverallPrecision = pr.Overall().Precision()
	t.Recall = eval.MeasureRecall(entries, corpus.LearnableReps())
	return t
}

// Table6 holds the sampled report categories for both specifications.
type Table6 struct {
	Seed     map[eval.Category]int
	Inferred map[eval.Category]int
}

// RunTable6 samples reportN reports from both taint runs and classifies
// them against the generated flow truth.
func (e *Experiments) RunTable6() Table6 {
	truth := e.Corpus.Truth
	flows := e.Corpus.Flows
	return Table6{
		Seed:     eval.ClassifySample(e.seedReports, flows, truth, reportN, evalSeed),
		Inferred: eval.ClassifySample(e.learnedReports, flows, truth, reportN, evalSeed),
	}
}

// Table7Column holds totals for one specification.
type Table7Column struct {
	Reports       int
	Projects      int
	EstimatedVuln int
}

// Table7 mirrors the paper's Table 7.
type Table7 struct {
	Seed     Table7Column
	Inferred Table7Column
}

// RunTable7 counts reports, affected projects, and the estimated true
// vulnerabilities (sampled true-positive rate scaled to all reports).
func (e *Experiments) RunTable7() Table7 {
	truth := e.Corpus.Truth
	flows := e.Corpus.Flows
	projectOf := make(map[string]string)
	for _, f := range e.Corpus.Files {
		projectOf[f.Name] = f.Project
	}
	column := func(reports []taint.Report) Table7Column {
		projects := make(map[string]bool)
		for i := range reports {
			projects[projectOf[reports[i].File]] = true
		}
		counts := eval.ClassifySample(reports, flows, truth, reportN, evalSeed)
		return Table7Column{
			Reports:       len(reports),
			Projects:      len(projects),
			EstimatedVuln: eval.EstimateTrueVulnerabilities(len(reports), counts),
		}
	}
	return Table7{Seed: column(e.seedReports), Inferred: column(e.learnedReports)}
}

// Fig10Point is one sweep point.
type Fig10Point struct {
	Files       int
	Constraints int
	Epochs      int // solver epochs
}

// RunFig10 sweeps corpus sizes and counts Seldon's inference work
// (constraints built, epochs solved): the paper's linear-scaling claim.
func (e *Experiments) RunFig10(sizes []int) []Fig10Point {
	var out []Fig10Point
	for _, n := range sizes {
		cfg := e.CorpusCfg
		cfg.Files = n
		c := corpus.Generate(cfg)
		res := core.LearnFromSources(c.FileMap(), e.Seed, core.Config{})
		out = append(out, Fig10Point{
			Files:       n,
			Constraints: len(res.System.Problem.Constraints),
			Epochs:      res.SolverEpochs,
		})
	}
	return out
}

// RunFig11 samples sampleN predictions per role and computes the paper's
// score/cumulative-precision curves, one per role.
func (e *Experiments) RunFig11() map[propgraph.Role][]eval.ScoredSample {
	entries := e.Learned.LearnedEntries(e.Seed)
	out := make(map[propgraph.Role][]eval.ScoredSample)
	for _, role := range propgraph.Roles() {
		out[role] = eval.ScoreCurve(entries, e.Corpus.Truth, role, sampleN, evalSeed)
	}
	return out
}

// Q5Project is the comparison for one project.
type Q5Project struct {
	Project             string
	IndividualPrecision float64
	IndividualCount     int
	ProjectedPrecision  float64
	ProjectedCount      int
	NewTrueRoles        int // true roles found by full-corpus learning only
}

// RunQ5 compares learning on single projects against projecting the
// full-corpus specification onto those projects (§7.5 Q5).
func (e *Experiments) RunQ5(nProjects int) []Q5Project {
	full := e.Learned.LearnedEntries(e.Seed)
	truth := e.Corpus.Truth
	projects := e.Corpus.Projects()
	if len(projects) > nProjects {
		projects = projects[:nProjects]
	}
	var out []Q5Project
	for _, proj := range projects {
		files := e.Corpus.ProjectFiles(proj)
		g := e.unionOf(files)
		// Representations occurring in this project.
		occurring := make(map[string]bool)
		strs := g.Syms.Strings()
		for id := range g.Events {
			for _, s := range g.RepIDs(id) {
				occurring[strs[s]] = true
			}
		}
		indiv := core.Learn(g, e.Seed, smallCutoff()).LearnedEntries(e.Seed)

		var projected []spec.Entry
		for _, en := range full {
			if occurring[en.Rep] {
				projected = append(projected, en)
			}
		}
		p := Q5Project{Project: proj,
			IndividualCount: len(indiv), ProjectedCount: len(projected)}
		p.IndividualPrecision = precisionOf(indiv, truth)
		p.ProjectedPrecision = precisionOf(projected, truth)
		indivSet := make(map[string]bool)
		for _, en := range indiv {
			indivSet[fmt.Sprintf("%d|%s", en.Role, en.Rep)] = true
		}
		for _, en := range projected {
			if truth.HasRole(en.Rep, en.Role) && !indivSet[fmt.Sprintf("%d|%s", en.Role, en.Rep)] {
				p.NewTrueRoles++
			}
		}
		out = append(out, p)
	}
	return out
}

func precisionOf(entries []spec.Entry, truth *corpus.Truth) float64 {
	if len(entries) == 0 {
		return 0
	}
	correct := 0
	for _, e := range entries {
		if truth.HasRole(e.Rep, e.Role) {
			correct++
		}
	}
	return float64(correct) / float64(len(entries))
}

// Q6Row is one seed variant.
type Q6Row struct {
	Seed      string
	Entries   int
	Predicted int
	Precision float64
}

// RunQ6 learns with the full, halved, and empty seed (§7.5 Q6).
func (e *Experiments) RunQ6() []Q6Row {
	truth := e.Corpus.Truth
	variants := []struct {
		name string
		s    *spec.Spec
	}{
		{"full seed", e.Seed},
		{"half seed", e.Seed.Halve()},
		{"empty seed", emptyWithBlacklist(e.Seed)},
	}
	var out []Q6Row
	for _, v := range variants {
		res := core.Learn(e.Union, v.s, core.Config{})
		entries := res.LearnedEntries(v.s)
		out = append(out, Q6Row{
			Seed: v.name, Entries: v.s.Len(), Predicted: len(entries),
			Precision: precisionOf(entries, truth),
		})
	}
	return out
}

func emptyWithBlacklist(s *spec.Spec) *spec.Spec {
	out := spec.New()
	out.Blacklist = s.Blacklist
	return out
}

// Q7 counts confirmed (true-vulnerability) reports per class.
type Q7 struct {
	ByCategory map[taint.Category]int
	Total      int
}

// RunQ7 classifies every learned-spec report against the flow truth and
// counts the confirmed vulnerabilities per class (the App. C table).
func (e *Experiments) RunQ7() Q7 {
	truth := e.Corpus.Truth
	flows := e.Corpus.Flows
	out := Q7{ByCategory: make(map[taint.Category]int)}
	for i := range e.learnedReports {
		if eval.ClassifyReport(&e.learnedReports[i], flows, truth) == eval.TrueVulnerability {
			out.ByCategory[e.learnedReports[i].Category]++
			out.Total++
		}
	}
	return out
}

// ArgSensitivity compares the plain seed specification with the
// argument-sensitive variant (paper §3.3 future work): restricting each
// sink to its dangerous argument position should remove the Table 6
// "flows into wrong parameter" false positives without losing true
// vulnerabilities.
type ArgSensitivity struct {
	PlainReports       int
	PlainWrongParam    int
	ArgAwareReports    int
	ArgAwareWrongParam int
	TrueVulnPlain      int
	TrueVulnArgAware   int
}

// RunArgSensitivity classifies every report of both runs (no sampling —
// the point is the exact wrong-parameter count).
func (e *Experiments) RunArgSensitivity() ArgSensitivity {
	truth := e.Corpus.Truth
	flows := e.Corpus.Flows

	count := func(reports []taint.Report) (total, wrongParam, trueVuln int) {
		total = len(reports)
		for i := range reports {
			switch eval.ClassifyReport(&reports[i], flows, truth) {
			case eval.WrongParameter:
				wrongParam++
			case eval.TrueVulnerability:
				trueVuln++
			}
		}
		return total, wrongParam, trueVuln
	}

	var out ArgSensitivity
	out.PlainReports, out.PlainWrongParam, out.TrueVulnPlain = count(e.seedReports)
	out.ArgAwareReports, out.ArgAwareWrongParam, out.TrueVulnArgAware =
		count(taint.Analyze(e.Union, corpus.ArgSensitiveSeed()))
	return out
}

// CollapsedLearning compares Seldon learning on the uncollapsed graph
// (its native granularity) against the Merlin-style collapsed graph
// (§6.4: contraction is unsuitable for taint analysis but usable for
// specification learning — at the cost of spurious flows like Fig. 8).
type CollapsedLearning struct {
	UncollapsedSpecs     int
	UncollapsedPrecision float64
	CollapsedSpecs       int
	CollapsedPrecision   float64
	UncollapsedEvents    int
	CollapsedEvents      int
}

// RunCollapsedLearning learns on both graph granularities.
func (e *Experiments) RunCollapsedLearning() CollapsedLearning {
	truth := e.Corpus.Truth
	var out CollapsedLearning

	entries := e.Learned.LearnedEntries(e.Seed)
	out.UncollapsedSpecs = len(entries)
	out.UncollapsedPrecision = precisionOf(entries, truth)
	out.UncollapsedEvents = len(e.Union.Events)

	collapsed := collapse(e.Union)
	centries := core.Learn(collapsed, e.Seed, core.Config{}).LearnedEntries(e.Seed)
	out.CollapsedSpecs = len(centries)
	out.CollapsedPrecision = precisionOf(centries, truth)
	out.CollapsedEvents = len(collapsed.Events)
	return out
}

// MerlinSweepPoint measures Merlin and Seldon on the same application
// size, each by the work it counts.
type MerlinSweepPoint struct {
	Files          int
	MerlinFactors  int
	MerlinSweeps   int // belief-propagation sweeps run
	MerlinTimedOut bool
	// SeldonConstraints and SeldonEpochs are Seldon's work on the same
	// application: constraints × solver epochs.
	SeldonConstraints int
	SeldonEpochs      int
}

// sweepGraph generates an application of the given size and returns its
// global graph, which Seldon learns on, and the collapsed graph Merlin
// infers on.
func sweepGraph(cfg corpus.Config, files int) (g, collapsed *propgraph.Graph) {
	cfg.Files = files
	c := corpus.Generate(cfg)
	g = propgraph.Union(core.AnalyzeFiles(c.FileMap(), core.Config{}).Graphs...)
	return g, collapse(g)
}

// RunMerlinSweep is the anti-Fig.10: Merlin's cost curve versus Seldon's
// as the application grows, the quantitative version of Table 2's story.
func (e *Experiments) RunMerlinSweep(sizes []int) []MerlinSweepPoint {
	var out []MerlinSweepPoint
	for _, files := range sizes {
		g, collapsed := sweepGraph(e.CorpusCfg, files)
		pt := MerlinSweepPoint{Files: files}
		res, err := Infer(collapsed, e.Seed, Options{MaxFactors: MerlinBudget})
		if err != nil {
			pt.MerlinTimedOut = true
			pt.MerlinFactors = MerlinBudget
		} else {
			pt.MerlinFactors = res.NumFactors
			pt.MerlinSweeps = res.Iterations
		}
		sres := core.Learn(g, e.Seed, smallCutoff())
		pt.SeldonConstraints = len(sres.System.Problem.Constraints)
		pt.SeldonEpochs = sres.SolverEpochs
		out = append(out, pt)
	}
	return out
}

// AblationRow is one full-corpus learn with a single constant moved off
// its default: how many specifications it infers and how precise they are.
type AblationRow struct {
	Knob, Value string
	Specs       int
	Precision   float64
}

// RunAblations moves the three design constants the paper argues for —
// the implication strength C (§4.2), the L1 weight λ (§4.4) and the
// backoff frequency cutoff (§4.3) — one at a time.
func (e *Experiments) RunAblations() []AblationRow {
	learn := func(knob string, value any, mutate func(*core.Config)) AblationRow {
		var cfg core.Config
		mutate(&cfg)
		entries := core.Learn(e.Union, e.Seed, cfg).LearnedEntries(e.Seed)
		pr := eval.SamplePrecision(entries, e.Corpus.Truth, sampleN, evalSeed)
		return AblationRow{Knob: knob, Value: fmt.Sprint(value), Specs: len(entries), Precision: pr.Overall().Precision()}
	}
	var rows []AblationRow
	for _, v := range []float64{0.75, 1} {
		rows = append(rows, learn("C", v, func(c *core.Config) { c.Constraints.C = v }))
	}
	for _, v := range []float64{0.01, 0.1, 1} {
		rows = append(rows, learn("λ", v, func(c *core.Config) { c.Constraints.Lambda = v }))
	}
	for _, v := range []int{5, 1} {
		rows = append(rows, learn("cutoff", v, func(c *core.Config) { c.Constraints.BackoffCutoff = v }))
	}
	return rows
}
