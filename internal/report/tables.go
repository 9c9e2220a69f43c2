package report

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/eval"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
	"seldon/internal/taint"
)

// ---------------------------------------------------------------------------
// Table 1 — dataset statistics

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
	res := e.Learned()
	st := res.Graph.ComputeStats()
	return Table1{
		Candidates:  len(res.System.EventInfos),
		AvgBackoff:  st.AvgBackoff,
		Constraints: len(res.System.Problem.Constraints),
		SourceFiles: len(e.Corpus().Files),
	}
}

func (t Table1) Render() string {
	tb := &table{title: "Table 1: Statistics on the applications in our evaluation.",
		cols: []string{"Statistic", "Value"}}
	tb.add("# Candidates", strconv.Itoa(t.Candidates))
	tb.add("Average # backoff options per event", fmt.Sprintf("%.2f", t.AvgBackoff))
	tb.add("# Constraints", strconv.Itoa(t.Constraints))
	tb.add("# Source files", strconv.Itoa(t.SourceFiles))
	return tb.String()
}

// ---------------------------------------------------------------------------
// Table 2 — Merlin scalability

// Table2Row is one (app, graph type) Merlin run.
type Table2Row struct {
	App        string
	Lines      int
	GraphType  string // "Collapsed" | "Uncollapsed"
	Candidates [3]int
	Factors    int
	Sweeps     int // belief-propagation sweeps run
	Time       time.Duration
	TimedOut   bool // factor budget exceeded (the paper's "> 10h")
}

// Table2 compares Merlin on a small and a large application.
type Table2 struct {
	Rows []Table2Row
	// SeldonLargeTime is Seldon's time on the large app (the paper notes
	// "< 20 seconds" vs Merlin's timeout).
	SeldonLargeTime time.Duration
	// SeldonLargeConstraints and SeldonLargeEpochs are the same run's
	// work: constraints × solver epochs.
	SeldonLargeConstraints int
	SeldonLargeEpochs      int
}

func (t Table2) Render() string {
	tb := &table{title: "Table 2: Statistics on specification learning with Merlin.",
		cols: []string{"Repository", "Lines", "Graph type", "Candidates (src/san/sink)", "Factors", "Inference Time"}}
	for _, r := range t.Rows {
		tm := fmtDuration(r.Time)
		if r.TimedOut {
			tm = "> budget (timeout)"
		}
		tb.add(r.App, strconv.Itoa(r.Lines), r.GraphType,
			fmt.Sprintf("%d/%d/%d", r.Candidates[0], r.Candidates[1], r.Candidates[2]),
			strconv.Itoa(r.Factors), tm)
	}
	return tb.String() + fmt.Sprintf("(Seldon handles the large app in %s.)\n", fmtDuration(t.SeldonLargeTime))
}

// ---------------------------------------------------------------------------
// Tables 3 & 4 — Merlin precision

// MerlinPrecisionRow is one role row of Table 3/4.
type MerlinPrecisionRow struct {
	Role      propgraph.Role
	Number    int
	Precision float64
}

// MerlinPrecision holds Table 3 (threshold) or Table 4 (top-k) results for
// both graph types.
type MerlinPrecision struct {
	Title       string
	Collapsed   []MerlinPrecisionRow
	Uncollapsed []MerlinPrecisionRow
}

func (t MerlinPrecision) Render() string {
	tb := &table{title: t.Title,
		cols: []string{"Role", "Collapsed #", "Collapsed Prec.", "Uncollapsed #", "Uncollapsed Prec."}}
	var totC, corC, totU, corU int
	for i := range t.Collapsed {
		c, u := t.Collapsed[i], t.Uncollapsed[i]
		tb.add(roleName(c.Role), strconv.Itoa(c.Number), pct(c.Precision),
			strconv.Itoa(u.Number), pct(u.Precision))
		totC += c.Number
		corC += int(c.Precision*float64(c.Number) + 0.5)
		totU += u.Number
		corU += int(u.Precision*float64(u.Number) + 0.5)
	}
	pc, pu := 0.0, 0.0
	if totC > 0 {
		pc = float64(corC) / float64(totC)
	}
	if totU > 0 {
		pu = float64(corU) / float64(totU)
	}
	tb.add("Any", strconv.Itoa(totC), pct(pc), strconv.Itoa(totU), pct(pu))
	return tb.String()
}

// ---------------------------------------------------------------------------
// Table 5 — Seldon predicted counts and precision

// Table5Row is one role row.
type Table5Row struct {
	Role       propgraph.Role
	Predicted  int
	Candidates int
	Precision  float64
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
// paper's protocol (random sample of SampleN predictions per role).
func (e *Experiments) RunTable5() Table5 {
	res := e.Learned()
	entries := res.LearnedEntries(e.Seed())
	pr := eval.SamplePrecision(entries, e.Corpus().Truth, e.SampleN, e.EvalSeed)
	counts := res.PredictedCounts()
	nCand := len(res.System.EventInfos)
	var t Table5
	t.Candidates = nCand
	for _, role := range propgraph.Roles() {
		p := pr.PerRole[role]
		t.Rows = append(t.Rows, Table5Row{
			Role: role, Predicted: counts[role], Candidates: nCand,
			Precision: p.Precision(),
		})
		t.OverallPredicted += counts[role]
	}
	t.OverallPrecision = pr.Overall().Precision()
	t.Recall = eval.MeasureRecall(entries, corpus.LearnableReps())
	return t
}

func (t Table5) Render() string {
	tb := &table{title: "Table 5: Count and estimated precision of candidates predicted by Seldon.",
		cols: []string{"Role", "# Predicted / # Candidates", "Fraction", "Precision (Estimate)"}}
	for _, r := range t.Rows {
		tb.add(roleName(r.Role),
			fmt.Sprintf("%d / %d", r.Predicted, r.Candidates),
			pct(float64(r.Predicted)/float64(max(1, r.Candidates))),
			pct(r.Precision))
	}
	tb.add("Any", fmt.Sprintf("%d / %d", t.OverallPredicted, t.Candidates),
		pct(float64(t.OverallPredicted)/float64(max(1, t.Candidates))),
		pct(t.OverallPrecision))
	return tb.String() + fmt.Sprintf("(Catalog recall: %d/%d learnable roles found = %s.)\n",
		t.Recall.Found, t.Recall.Total, pct(t.Recall.Fraction()))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------------
// Table 6 — bug-report breakdown, seed vs inferred spec

// Table6 holds the sampled report categories for both specifications.
type Table6 struct {
	SampleSize int
	Seed       map[eval.Category]int
	Inferred   map[eval.Category]int
}

// RunTable6 samples ReportN reports from both taint runs and classifies
// them against the generated flow truth.
func (e *Experiments) RunTable6() Table6 {
	seedReports, learnedReports := e.seedAndLearnedReports()
	truth := e.Corpus().Truth
	flows := e.Corpus().Flows
	return Table6{
		SampleSize: e.ReportN,
		Seed:       eval.ClassifySample(seedReports, flows, truth, e.ReportN, e.EvalSeed),
		Inferred:   eval.ClassifySample(learnedReports, flows, truth, e.ReportN, e.EvalSeed),
	}
}

func (t Table6) Render() string {
	tb := &table{title: fmt.Sprintf("Table 6: Bug-finding with seed vs inferred specification (%d sampled reports each).", t.SampleSize),
		cols: []string{"Reason", "Seed spec", "Inferred spec"}}
	seedTotal, infTotal := 0, 0
	for _, c := range t.Seed {
		seedTotal += c
	}
	for _, c := range t.Inferred {
		infTotal += c
	}
	for _, cat := range eval.Categories() {
		s, i := "0%", "0%"
		if seedTotal > 0 {
			s = pct(float64(t.Seed[cat]) / float64(seedTotal))
		}
		if infTotal > 0 {
			i = pct(float64(t.Inferred[cat]) / float64(infTotal))
		}
		tb.add(string(cat), s, i)
	}
	return tb.String()
}

// ---------------------------------------------------------------------------
// Table 7 — report counts and estimated vulnerabilities

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
	seedReports, learnedReports := e.seedAndLearnedReports()
	truth := e.Corpus().Truth
	flows := e.Corpus().Flows
	projectOf := make(map[string]string)
	for _, f := range e.Corpus().Files {
		projectOf[f.Name] = f.Project
	}
	column := func(reports []taint.Report) Table7Column {
		projects := make(map[string]bool)
		for i := range reports {
			projects[projectOf[reports[i].File]] = true
		}
		counts := eval.ClassifySample(reports, flows, truth, e.ReportN, e.EvalSeed)
		return Table7Column{
			Reports:       len(reports),
			Projects:      len(projects),
			EstimatedVuln: eval.EstimateTrueVulnerabilities(len(reports), counts),
		}
	}
	return Table7{Seed: column(seedReports), Inferred: column(learnedReports)}
}

func (t Table7) Render() string {
	tb := &table{title: "Table 7: Total number of reports and estimated vulnerabilities.",
		cols: []string{"Reason", "Seed spec", "Inferred spec"}}
	tb.add("Number of reports", strconv.Itoa(t.Seed.Reports), strconv.Itoa(t.Inferred.Reports))
	tb.add("Number of projects affected", strconv.Itoa(t.Seed.Projects), strconv.Itoa(t.Inferred.Projects))
	tb.add("Estimated vulnerabilities", strconv.Itoa(t.Seed.EstimatedVuln), strconv.Itoa(t.Inferred.EstimatedVuln))
	return tb.String()
}

// ---------------------------------------------------------------------------
// Figure 10 — inference time vs number of files

// Fig10Point is one sweep point.
type Fig10Point struct {
	Files       int
	Constraints int
	Epochs      int // solver epochs
	Time        time.Duration
}

// Fig10 holds the scaling sweep.
type Fig10 struct {
	Points []Fig10Point
}

// RunFig10 sweeps corpus sizes and measures Seldon's inference time
// (constraint construction + solving), the paper's linear-scaling claim.
func (e *Experiments) RunFig10(sizes []int) Fig10 {
	var out Fig10
	for _, n := range sizes {
		cfg := e.CorpusCfg
		cfg.Files = n
		c := corpus.Generate(cfg)
		res := core.LearnFromSources(c.FileMap(), e.Seed(), e.LearnCfg)
		out.Points = append(out.Points, Fig10Point{
			Files:       n,
			Constraints: len(res.System.Problem.Constraints),
			Epochs:      res.SolverEpochs,
			Time:        res.InferenceTime,
		})
	}
	return out
}

func (f Fig10) Render() string {
	tb := &table{title: "Figure 10: Seldon inference time as a function of the number of analyzed files.",
		cols: []string{"Files", "Constraints", "Time"}}
	for _, p := range f.Points {
		tb.add(strconv.Itoa(p.Files), strconv.Itoa(p.Constraints), fmtDuration(p.Time))
	}
	return tb.String() + asciiSeries("time", f.times())
}

func (f Fig10) times() []float64 {
	out := make([]float64, len(f.Points))
	for i, p := range f.Points {
		out[i] = p.Time.Seconds()
	}
	return out
}

// asciiSeries renders a tiny bar chart for terminal output.
func asciiSeries(label string, ys []float64) string {
	maxY := 0.0
	for _, y := range ys {
		if y > maxY {
			maxY = y
		}
	}
	if maxY == 0 {
		return ""
	}
	var b strings.Builder
	for i, y := range ys {
		n := int(40 * y / maxY)
		fmt.Fprintf(&b, "%s[%2d] %s %.3fs\n", label, i, strings.Repeat("#", n), y)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 11 — score vs cumulative precision

// Fig11 holds one curve per role.
type Fig11 struct {
	Curves map[propgraph.Role][]eval.ScoredSample
}

// RunFig11 samples SampleN predictions per role and computes the paper's
// score/cumulative-precision curves.
func (e *Experiments) RunFig11() Fig11 {
	entries := e.Learned().LearnedEntries(e.Seed())
	out := Fig11{Curves: make(map[propgraph.Role][]eval.ScoredSample)}
	for _, role := range propgraph.Roles() {
		out.Curves[role] = eval.ScoreCurve(entries, e.Corpus().Truth, role, e.SampleN, e.EvalSeed)
	}
	return out
}

func (f Fig11) Render() string {
	var b strings.Builder
	b.WriteString("Figure 11: sampled candidates sorted by score, with cumulative precision.\n")
	for _, role := range propgraph.Roles() {
		curve := f.Curves[role]
		fmt.Fprintf(&b, "\n-- %s (%d samples) --\n", roleName(role), len(curve))
		for i, s := range curve {
			mark := " "
			if s.Correct {
				mark = "+"
			}
			fmt.Fprintf(&b, "%2d %s score=%.3f cumPrec=%.2f %s\n", i, mark, s.Score, s.CumPrecision, s.Rep)
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Q5 — cross-project learning

// Q5Project is the comparison for one project.
type Q5Project struct {
	Project             string
	IndividualPrecision float64
	IndividualCount     int
	ProjectedPrecision  float64
	ProjectedCount      int
	NewTrueRoles        int // true roles found by full-corpus learning only
}

// Q5 aggregates the per-project comparison.
type Q5 struct {
	Projects []Q5Project
}

// RunQ5 compares learning on single projects against projecting the
// full-corpus specification onto those projects (§7.5 Q5).
func (e *Experiments) RunQ5(nProjects int) Q5 {
	full := e.Learned().LearnedEntries(e.Seed())
	truth := e.Corpus().Truth
	projects := e.Corpus().Projects()
	if len(projects) > nProjects {
		projects = projects[:nProjects]
	}
	var out Q5
	for _, proj := range projects {
		files := e.Corpus().ProjectFiles(proj)
		g := e.unionOf(files)
		// Representations occurring in this project.
		occurring := make(map[string]bool)
		strs := g.Syms.Strings()
		for _, ev := range g.Events {
			for _, s := range ev.RepIDs {
				occurring[strs[s]] = true
			}
		}
		cfg := e.LearnCfg
		cfg.Constraints.BackoffCutoff = 2 // single projects are small
		indiv := core.Learn(g, e.Seed(), cfg).LearnedEntries(e.Seed())

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
		out.Projects = append(out.Projects, p)
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

func (q Q5) Render() string {
	tb := &table{title: "Q5: single-project learning vs projection of the full-corpus specification.",
		cols: []string{"Project", "Individual # (prec.)", "Projected # (prec.)", "New true roles"}}
	for _, p := range q.Projects {
		tb.add(p.Project,
			fmt.Sprintf("%d (%s)", p.IndividualCount, pct(p.IndividualPrecision)),
			fmt.Sprintf("%d (%s)", p.ProjectedCount, pct(p.ProjectedPrecision)),
			strconv.Itoa(p.NewTrueRoles))
	}
	return tb.String()
}

// ---------------------------------------------------------------------------
// Q6 — seed-specification ablation

// Q6Row is one seed variant.
type Q6Row struct {
	Seed      string
	Entries   int
	Predicted int
	Precision float64
}

// Q6 holds the ablation rows.
type Q6 struct{ Rows []Q6Row }

// RunQ6 learns with the full, halved, and empty seed (§7.5 Q6).
func (e *Experiments) RunQ6() Q6 {
	truth := e.Corpus().Truth
	variants := []struct {
		name string
		s    *spec.Spec
	}{
		{"full seed", e.Seed()},
		{"half seed", e.Seed().Halve()},
		{"empty seed", emptyWithBlacklist(e.Seed())},
	}
	var out Q6
	for _, v := range variants {
		res := core.Learn(e.Union(), v.s, e.LearnCfg)
		entries := res.LearnedEntries(v.s)
		out.Rows = append(out.Rows, Q6Row{
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

func (q Q6) Render() string {
	tb := &table{title: "Q6: impact of the seed specification.",
		cols: []string{"Seed", "Seed entries", "Inferred specs", "Precision"}}
	for _, r := range q.Rows {
		tb.add(r.Seed, strconv.Itoa(r.Entries), strconv.Itoa(r.Predicted), pct(r.Precision))
	}
	return tb.String()
}

// ---------------------------------------------------------------------------
// Q7 / App. C — reported bugs by vulnerability class

// Q7 counts confirmed (true-vulnerability) reports per class.
type Q7 struct {
	ByCategory map[taint.Category]int
	Total      int
}

// RunQ7 classifies every learned-spec report against the flow truth and
// counts the confirmed vulnerabilities per class (the App. C table).
func (e *Experiments) RunQ7() Q7 {
	_, learnedReports := e.seedAndLearnedReports()
	truth := e.Corpus().Truth
	flows := e.Corpus().Flows
	out := Q7{ByCategory: make(map[taint.Category]int)}
	for i := range learnedReports {
		if eval.ClassifyReport(&learnedReports[i], flows, truth) == eval.TrueVulnerability {
			out.ByCategory[learnedReports[i].Category]++
			out.Total++
		}
	}
	return out
}

func (q Q7) Render() string {
	tb := &table{title: "Q7 / App. C: confirmed vulnerabilities by class (learned specification).",
		cols: []string{"Type of Bug", "Count"}}
	for _, cat := range []taint.Category{
		taint.XSS, taint.SQLInjection, taint.PathTraversal,
		taint.CommandInjection, taint.CodeInjection, taint.OpenRedirect,
		taint.GenericFlow,
	} {
		if n := q.ByCategory[cat]; n > 0 {
			tb.add(string(cat), strconv.Itoa(n))
		}
	}
	tb.add("Total", strconv.Itoa(q.Total))
	return tb.String()
}

// ---------------------------------------------------------------------------
// Tables 8-10 — sampled learned specifications per role

// RunSampleTable renders the App. A-style listing for one role: sampled
// predictions sorted by score with correctness marks.
func (e *Experiments) RunSampleTable(role propgraph.Role, n int) string {
	entries := e.Learned().LearnedEntries(e.Seed())
	curve := eval.ScoreCurve(entries, e.Corpus().Truth, role, n, e.EvalSeed)
	tb := &table{
		title: fmt.Sprintf("Evaluation on %d random events classified as %s by Seldon.",
			len(curve), strings.ToLower(roleName(role))),
		cols: []string{"API", "Score", "Correct"},
	}
	for _, s := range curve {
		mark := ""
		if s.Correct {
			mark = "yes"
		}
		tb.add(s.Rep, fmt.Sprintf("%.2f", s.Score), mark)
	}
	return tb.String()
}
