package experiments

import (
	"testing"

	"seldon/internal/eval"
	"seldon/internal/propgraph"
)

// The tests below state the paper's claims as inequalities on the golden
// run's own results, so they cost nothing beyond it: the golden pins the
// numbers, these say which direction a re-recording may not take them.

func TestTable1(t *testing.T) {
	t1 := golden().t1
	if t1.Candidates == 0 || t1.Constraints == 0 || t1.SourceFiles != goldenFiles {
		t.Errorf("table1 = %+v", t1)
	}
	if t1.AvgBackoff < 1 || t1.AvgBackoff > 4 {
		t.Errorf("avg backoff = %v", t1.AvgBackoff)
	}
}

func TestTable2MerlinScalability(t *testing.T) {
	t2 := golden().t2
	if len(t2.Rows) != 4 {
		t.Fatalf("rows = %d", len(t2.Rows))
	}
	small, large := t2.Rows[0], t2.Rows[2]
	if large.Lines <= small.Lines {
		t.Errorf("large app (%d lines) not larger than small (%d)", large.Lines, small.Lines)
	}
	// The shape result: the large app needs far more factors (or times
	// out), reproducing Merlin's scalability wall.
	if !large.TimedOut && large.Factors < 4*small.Factors {
		t.Errorf("factors small=%d large=%d: no superlinear growth", small.Factors, large.Factors)
	}
	if t2.SeldonLargeConstraints == 0 || t2.SeldonLargeEpochs == 0 {
		t.Errorf("Seldon's work on the large app not counted: %+v", t2)
	}
}

func TestTables3And4(t *testing.T) {
	r := golden()
	if len(r.t3.Collapsed) != 3 || len(r.t3.Uncollapsed) != 3 {
		t.Fatalf("table3 = %+v", r.t3)
	}
	for _, row := range r.t4.Collapsed {
		if row.Number > 5 {
			t.Errorf("top-5 row has %d predictions", row.Number)
		}
	}
}

func TestTable5SeldonPrecision(t *testing.T) {
	t5 := golden().t5
	if len(t5.Rows) != 3 {
		t.Fatalf("rows = %d", len(t5.Rows))
	}
	if t5.OverallPredicted == 0 {
		t.Error("nothing predicted")
	}
	// Only a small fraction of candidates carries a role (paper: 3.27%).
	frac := float64(t5.OverallPredicted) / float64(t5.Candidates)
	if frac > 0.6 {
		t.Errorf("predicted fraction = %v, implausibly high", frac)
	}
	if t5.OverallPrecision < 0.4 {
		t.Errorf("overall precision = %v, want >= 0.4 (paper: 67%%)", t5.OverallPrecision)
	}
}

func TestTable6And7(t *testing.T) {
	t6, t7 := golden().t6, golden().t7
	seedTotal, infTotal := 0, 0
	for _, c := range t6.Seed {
		seedTotal += c
	}
	for _, c := range t6.Inferred {
		infTotal += c
	}
	if seedTotal == 0 || infTotal == 0 {
		t.Fatalf("table6 empty: %+v", t6)
	}
	// The headline claim: the inferred spec removes most missing-sanitizer
	// false positives relative to the seed spec.
	if t6.Seed[eval.MissingSanitizer] > 2 &&
		t6.Inferred[eval.MissingSanitizer] >= t6.Seed[eval.MissingSanitizer] {
		t.Errorf("missing-sanitizer: seed %d, inferred %d — inferred should be lower",
			t6.Seed[eval.MissingSanitizer], t6.Inferred[eval.MissingSanitizer])
	}

	if t7.Inferred.Reports <= t7.Seed.Reports {
		t.Errorf("inferred reports (%d) should exceed seed reports (%d)",
			t7.Inferred.Reports, t7.Seed.Reports)
	}
	// Learned sanitizers (including mislabeled pass-throughs) can suppress
	// individual seed reports, so project coverage may dip slightly even
	// as total reports rise; only a large drop would signal a bug.
	if t7.Inferred.Projects < t7.Seed.Projects-3 {
		t.Errorf("projects: seed %d inferred %d", t7.Seed.Projects, t7.Inferred.Projects)
	}
}

func TestFig10Scaling(t *testing.T) {
	points := golden().fig10
	if len(points) != len(fig10Sizes) {
		t.Fatalf("points = %d", len(points))
	}
	// Constraint count must grow roughly linearly with file count: over
	// the sweep, constraints per file may not double.
	first, last := points[0], points[len(points)-1]
	if last.Constraints*first.Files > 2*first.Constraints*last.Files {
		t.Errorf("constraints %d -> %d for files %d -> %d: superlinear growth",
			first.Constraints, last.Constraints, first.Files, last.Files)
	}
	if last.Constraints <= first.Constraints {
		t.Errorf("constraints did not grow: %d -> %d", first.Constraints, last.Constraints)
	}
}

func TestFig11Curves(t *testing.T) {
	fig := golden().fig11
	for _, role := range propgraph.Roles() {
		curve := fig[role]
		for i := 1; i < len(curve); i++ {
			if curve[i].Score > curve[i-1].Score {
				t.Errorf("%v curve not sorted", role)
			}
		}
	}
}

func TestQ5CrossProject(t *testing.T) {
	q5 := golden().q5
	if len(q5) != 3 {
		t.Fatalf("projects = %d", len(q5))
	}
	// The shape claim: projecting the full-corpus specification onto a
	// project finds at least as many specifications as learning on the
	// project alone, and discovers new true roles somewhere.
	newRoles := 0
	for _, p := range q5 {
		newRoles += p.NewTrueRoles
		if p.ProjectedCount < p.IndividualCount {
			t.Errorf("%s: projected %d specs, individual %d", p.Project, p.ProjectedCount, p.IndividualCount)
		}
	}
	if newRoles == 0 {
		t.Error("full-corpus learning found no new true roles on sampled projects")
	}
}

func TestQ6SeedAblation(t *testing.T) {
	q6 := golden().q6
	if len(q6) != 3 {
		t.Fatalf("rows = %d", len(q6))
	}
	full, half, empty := q6[0], q6[1], q6[2]
	if empty.Predicted != 0 {
		t.Errorf("empty seed predicted %d specs, want 0", empty.Predicted)
	}
	// The paper's claim is about precision: halving the seed reduces it
	// (by ~14pp on the real corpus).
	if half.Precision > full.Precision+0.1 {
		t.Errorf("half-seed precision (%v) above full-seed (%v)", half.Precision, full.Precision)
	}
	if half.Entries >= full.Entries {
		t.Errorf("half seed has %d entries, full %d", half.Entries, full.Entries)
	}
}

func TestQ7Categories(t *testing.T) {
	q7 := golden().q7
	if q7.Total == 0 {
		t.Error("no confirmed vulnerabilities")
	}
	sum := 0
	for _, n := range q7.ByCategory {
		sum += n
	}
	if sum != q7.Total {
		t.Errorf("category sum %d != total %d", sum, q7.Total)
	}
}

func TestArgSensitivity(t *testing.T) {
	a := golden().argSens
	if a.PlainWrongParam == 0 {
		t.Fatal("no wrong-parameter flows in the golden corpus: the extension is not exercised")
	}
	if a.ArgAwareWrongParam != 0 {
		t.Errorf("arg-sensitive seed left %d wrong-parameter reports", a.ArgAwareWrongParam)
	}
	if a.TrueVulnArgAware < a.TrueVulnPlain {
		t.Errorf("arg-sensitivity lost true vulnerabilities: %d -> %d",
			a.TrueVulnPlain, a.TrueVulnArgAware)
	}
}

func TestCollapsedLearning(t *testing.T) {
	c := golden().collapsed
	if c.CollapsedEvents >= c.UncollapsedEvents {
		t.Errorf("collapse did not shrink the graph: %d -> %d",
			c.UncollapsedEvents, c.CollapsedEvents)
	}
	if c.CollapsedSpecs == 0 {
		t.Error("collapsed graph learned nothing — §6.4 says it is usable for learning")
	}
}

func TestMerlinSweepSuperlinear(t *testing.T) {
	sweep := golden().sweep
	if len(sweep) != len(sweepSizes) {
		t.Fatalf("points = %d", len(sweep))
	}
	small, large := sweep[0], sweep[2] // 24 and 96 files
	// Factor growth must outpace file growth (4x files -> >6x factors),
	// unless the larger run already blew the budget, which proves the
	// point even harder.
	if !large.MerlinTimedOut && large.MerlinFactors < 6*small.MerlinFactors {
		t.Errorf("factors grew %d -> %d for 4x files; expected superlinear",
			small.MerlinFactors, large.MerlinFactors)
	}
	// Seldon's problem grows with the files and no faster.
	if large.SeldonConstraints > 2*4*small.SeldonConstraints {
		t.Errorf("Seldon constraints grew %d -> %d for 4x files", small.SeldonConstraints, large.SeldonConstraints)
	}
}

// TestAblations states §4.2's and §4.4's directions: C = 1 infers fewer
// specifications than C = 0.75, and a smaller λ never infers fewer.
func TestAblations(t *testing.T) {
	byKnob := make(map[string][]AblationRow)
	for _, a := range golden().ablations {
		byKnob[a.Knob] = append(byKnob[a.Knob], a)
	}
	if c := byKnob["C"]; len(c) != 2 || c[1].Specs >= c[0].Specs {
		t.Errorf("C ablation = %+v, want fewer specifications at C = 1", c)
	}
	l := byKnob["λ"]
	if len(l) != 3 || l[0].Specs < l[1].Specs || l[1].Specs < l[2].Specs {
		t.Errorf("λ ablation = %+v, want specifications non-increasing in λ", l)
	}
}
