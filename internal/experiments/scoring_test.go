package experiments

import (
	"math/rand"
	"sort"
	"testing"

	"seldon/internal/corpus"
	"seldon/internal/eval"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
	"seldon/internal/taint"
)

// This file is the scoring only the experiments use: Fig. 11's score
// curve, Table 6's rows in presentation order, Table 7's estimate and
// Q6's halved seed.

// ScoredSample is one point of a Fig. 11 curve.
type ScoredSample struct {
	Rep          string
	Score        float64
	Correct      bool
	CumPrecision float64 // precision over this and all higher-scored samples
}

// scoreCurve draws up to n random predictions of a role, sorts them by
// descending score, and computes cumulative precision (Fig. 11).
func scoreCurve(entries []spec.Entry, truth *corpus.Truth, role propgraph.Role, n int, seed int64) []ScoredSample {
	rng := rand.New(rand.NewSource(seed))
	var pool []spec.Entry
	for _, e := range entries {
		if e.Role == role {
			pool = append(pool, e)
		}
	}
	idx := rng.Perm(len(pool))
	if len(idx) > n {
		idx = idx[:n]
	}
	samples := make([]ScoredSample, 0, len(idx))
	for _, i := range idx {
		samples = append(samples, ScoredSample{
			Rep:     pool[i].Rep,
			Score:   pool[i].Score,
			Correct: truth.HasRole(pool[i].Rep, role),
		})
	}
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].Score > samples[j].Score })
	correct := 0
	for i := range samples {
		if samples[i].Correct {
			correct++
		}
		samples[i].CumPrecision = float64(correct) / float64(i+1)
	}
	return samples
}

// categories lists the Table 6 rows in presentation order.
func categories() []eval.Category {
	return []eval.Category{
		eval.TrueVulnerability, eval.VulnFlowNoBug, eval.IncorrectSink, eval.IncorrectSource,
		eval.IncorrectBoth, eval.MissingSanitizer, eval.WrongParameter,
	}
}

// estimateTrueVulnerabilities scales the sampled true-positive rate to the
// full report count (Table 7's "estimated vulnerabilities").
func estimateTrueVulnerabilities(total int, sampleCounts map[eval.Category]int) int {
	sampled := 0
	for _, c := range sampleCounts {
		sampled += c
	}
	if sampled == 0 {
		return 0
	}
	return total * sampleCounts[eval.TrueVulnerability] / sampled
}

// halve returns a spec with only every other role entry of s kept (odd
// lines, 1-based), reproducing the paper's Q6 seed-ablation experiment.
// The blacklist is kept whole.
func halve(s *spec.Spec) *spec.Spec {
	h := spec.New()
	for i, e := range s.Entries() {
		if i%2 == 0 {
			h.Add(e.Role, e.Rep)
		}
	}
	h.Blacklist = s.Blacklist
	return h
}

func TestScoreCurveSortedAndCumulative(t *testing.T) {
	truth := corpus.NewTruth()
	entries := []spec.Entry{
		{Rep: "webapi.get_param()", Role: propgraph.Source, Score: 0.9},
		{Rep: "metrics.observe()", Role: propgraph.Source, Score: 0.5},
		{Rep: "bottle.request.query.get()", Role: propgraph.Source, Score: 0.7},
	}
	curve := scoreCurve(entries, truth, propgraph.Source, 10, 1)
	if len(curve) != 3 {
		t.Fatalf("curve = %d points", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Score > curve[i-1].Score {
			t.Error("curve not sorted by descending score")
		}
	}
	// First two are correct sources, third is noise: cumulative precision
	// must be 1, 1, 2/3.
	if curve[0].CumPrecision != 1 || curve[2].CumPrecision < 0.66 || curve[2].CumPrecision > 0.67 {
		t.Errorf("cumulative = %v %v %v", curve[0].CumPrecision, curve[1].CumPrecision, curve[2].CumPrecision)
	}
}

func TestCategoriesComplete(t *testing.T) {
	if len(categories()) != 7 {
		t.Errorf("categories = %d, want 7 (Table 6 rows)", len(categories()))
	}
}

func TestClassifySampleAndEstimate(t *testing.T) {
	flows := []corpus.Flow{
		{File: "a.py", SourceRep: "flask.request.args.get()", SinkRep: "os.system()", Exploitable: true},
	}
	var reports []taint.Report
	for i := 0; i < 10; i++ {
		reports = append(reports, taint.Report{
			File: "a.py", SourceRep: "flask.request.args.get()", SinkRep: "os.system()",
		})
	}
	counts := eval.ClassifySample(reports, flows, corpus.NewTruth(), 5, 1)
	if counts[eval.TrueVulnerability] != 5 {
		t.Errorf("counts = %v", counts)
	}
	if est := estimateTrueVulnerabilities(len(reports), counts); est != 10 {
		t.Errorf("estimate = %d, want 10", est)
	}
	if est := estimateTrueVulnerabilities(0, map[eval.Category]int{}); est != 0 {
		t.Errorf("empty estimate = %d", est)
	}
}

func TestHalve(t *testing.T) {
	s := spec.Seed()
	h := halve(s)
	if h.Len() != (s.Len()+1)/2 {
		t.Errorf("halved = %d, want %d", h.Len(), (s.Len()+1)/2)
	}
	if len(h.Blacklist) != len(s.Blacklist) {
		t.Error("halving must keep the blacklist")
	}
}
