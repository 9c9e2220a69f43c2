package report

import (
	"strings"
	"time"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/merlin"
	"seldon/internal/propgraph"
)

// MerlinBudget is the factor budget standing in for the paper's 10-hour
// wall-clock timeout: runs that exceed it are reported as timed out.
const MerlinBudget = 250000

// smallApp returns the first project of the corpus (the paper's Flask
// API-sized repository) as name→source.
func (e *Experiments) smallApp() map[string]string {
	projects := e.Corpus().Projects()
	return e.Corpus().ProjectFiles(projects[0])
}

// largeApp returns several projects merged into one repository (the
// paper's Flask-Admin-sized application, ~10x the small app).
func (e *Experiments) largeApp() map[string]string {
	out := make(map[string]string)
	projects := e.Corpus().Projects()
	n := len(projects)
	if n > 24 {
		n = 24
	}
	for _, p := range projects[:n] {
		for name, src := range e.Corpus().ProjectFiles(p) {
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
func (e *Experiments) runMerlin(files map[string]string, collapsed bool) (*merlin.Result, Table2Row) {
	g := e.unionOf(files)
	graphType := "Uncollapsed"
	if collapsed {
		g = g.Collapse()
		graphType = "Collapsed"
	}
	res, err := merlin.Infer(g, e.Seed(), merlin.Options{MaxFactors: MerlinBudget})
	row := Table2Row{GraphType: graphType, Lines: countLines(files)}
	if res != nil {
		row.Candidates = res.Candidates
		row.Factors = res.NumFactors
		row.Sweeps = res.Iterations
		row.Time = res.InferenceTime
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
	// Seldon on the large app, for the "< 20 seconds" comparison.
	start := time.Now()
	cfg := e.LearnCfg
	cfg.Constraints.BackoffCutoff = 2
	res := core.LearnFromSources(large, e.Seed(), cfg)
	t.SeldonLargeTime = time.Since(start)
	t.SeldonLargeConstraints = len(res.System.Problem.Constraints)
	t.SeldonLargeEpochs = res.SolverEpochs
	return t
}

// merlinPrecisionRows judges Merlin predictions against the truth oracle.
func merlinPrecisionRows(preds []merlin.Prediction, truth *corpus.Truth) []MerlinPrecisionRow {
	rows := make([]MerlinPrecisionRow, 0, 3)
	for _, role := range propgraph.Roles() {
		var n, correct int
		for _, p := range preds {
			if p.Role != role {
				continue
			}
			n++
			if truth.HasRole(p.Rep, role) {
				correct++
			}
		}
		row := MerlinPrecisionRow{Role: role, Number: n}
		if n > 0 {
			row.Precision = float64(correct) / float64(n)
		}
		rows = append(rows, row)
	}
	return rows
}

// RunTable3 evaluates Merlin on the small app at 95% confidence.
func (e *Experiments) RunTable3() MerlinPrecision {
	small := e.smallApp()
	truth := e.Corpus().Truth
	out := MerlinPrecision{Title: "Table 3: Merlin on the small app, selecting roles with 95% confidence."}
	if res, row := e.runMerlin(small, true); !row.TimedOut {
		out.Collapsed = merlinPrecisionRows(unseeded(res.Predict(0.95), e), truth)
	}
	if res, row := e.runMerlin(small, false); !row.TimedOut {
		out.Uncollapsed = merlinPrecisionRows(unseeded(res.Predict(0.95), e), truth)
	}
	return out
}

// RunTable4 evaluates Merlin's top-5 predictions per role.
func (e *Experiments) RunTable4() MerlinPrecision {
	small := e.smallApp()
	truth := e.Corpus().Truth
	out := MerlinPrecision{Title: "Table 4: Merlin on the small app, top-5 predictions per role."}
	run := func(collapsed bool) []MerlinPrecisionRow {
		res, row := e.runMerlin(small, collapsed)
		if row.TimedOut {
			return nil
		}
		var preds []merlin.Prediction
		for _, role := range propgraph.Roles() {
			preds = append(preds, unseeded(res.TopK(role, 5+seedCount(e, res, role)), e)...)
		}
		return merlinPrecisionRows(capPerRole(preds, 5), truth)
	}
	out.Collapsed = run(true)
	out.Uncollapsed = run(false)
	return out
}

// unseeded drops predictions whose rep is already in the seed — the paper
// evaluates newly inferred specifications.
func unseeded(preds []merlin.Prediction, e *Experiments) []merlin.Prediction {
	var out []merlin.Prediction
	for _, p := range preds {
		if !e.Seed().RolesOf(p.Rep).Has(p.Role) {
			out = append(out, p)
		}
	}
	return out
}

// seedCount estimates how many of a role's top predictions are seeded, so
// TopK can over-fetch before filtering.
func seedCount(e *Experiments, res *merlin.Result, role propgraph.Role) int {
	n := 0
	for _, p := range res.TopK(role, 50) {
		if e.Seed().RolesOf(p.Rep).Has(p.Role) {
			n++
		}
	}
	return n
}

func capPerRole(preds []merlin.Prediction, k int) []merlin.Prediction {
	count := make(map[propgraph.Role]int)
	var out []merlin.Prediction
	for _, p := range preds {
		if count[p.Role] < k {
			count[p.Role]++
			out = append(out, p)
		}
	}
	return out
}
