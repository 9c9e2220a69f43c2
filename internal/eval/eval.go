// Package eval scores learned specifications and taint reports against the
// corpus ground truth, reproducing the paper's evaluation protocol:
// random samples of 50 predictions per role for precision (Q2), recall
// over the learnable representations, and the report taxonomy of Table 6.
package eval

import (
	"math/rand"
	"sort"

	"seldon/internal/corpus"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
	"seldon/internal/taint"
)

// RolePrecision summarizes correctness of sampled predictions for a role.
type RolePrecision struct {
	Predicted int // total predictions for the role
	Sampled   int
	Correct   int
}

// Precision returns Correct/Sampled (0 when nothing was sampled).
func (p RolePrecision) Precision() float64 {
	if p.Sampled == 0 {
		return 0
	}
	return float64(p.Correct) / float64(p.Sampled)
}

// PrecisionReport holds per-role and overall precision (Table 5).
type PrecisionReport struct {
	PerRole map[propgraph.Role]RolePrecision
}

// Overall aggregates the per-role samples.
func (r *PrecisionReport) Overall() RolePrecision {
	var out RolePrecision
	for _, p := range r.PerRole {
		out.Predicted += p.Predicted
		out.Sampled += p.Sampled
		out.Correct += p.Correct
	}
	return out
}

// SamplePrecision draws up to nPerRole random entries per role (the
// paper's protocol samples 50) and judges them against the oracle.
func SamplePrecision(entries []spec.Entry, truth *corpus.Truth, nPerRole int, seed int64) *PrecisionReport {
	rng := rand.New(rand.NewSource(seed))
	rep := &PrecisionReport{PerRole: make(map[propgraph.Role]RolePrecision)}
	for _, role := range propgraph.Roles() {
		var pool []spec.Entry
		for _, e := range entries {
			if e.Role == role {
				pool = append(pool, e)
			}
		}
		p := RolePrecision{Predicted: len(pool)}
		idx := rng.Perm(len(pool))
		for _, i := range idx {
			if p.Sampled >= nPerRole {
				break
			}
			p.Sampled++
			if truth.HasRole(pool[i].Rep, role) {
				p.Correct++
			}
		}
		rep.PerRole[role] = p
	}
	return rep
}

// Recall measures how many of the discoverable catalog roles the learner
// found — a metric the paper could not compute (no ground truth); our
// oracle makes it exact.
type Recall struct {
	Found   int
	Total   int
	Missing []string // "role rep" of catalog roles not learned
}

// Fraction returns Found/Total (1 when the catalog is empty).
func (r Recall) Fraction() float64 {
	if r.Total == 0 {
		return 1
	}
	return float64(r.Found) / float64(r.Total)
}

// MeasureRecall checks which learnable catalog roles appear among the
// learned entries (matching any dotted suffix relationship is not needed:
// catalog reps are the canonical fully qualified forms the corpus emits).
func MeasureRecall(entries []spec.Entry, learnable map[string]propgraph.Role) Recall {
	found := make(map[string]bool)
	for _, e := range entries {
		found[e.Rep+"|"+e.Role.String()] = true
	}
	var r Recall
	for rep, role := range learnable {
		r.Total++
		if found[rep+"|"+role.String()] {
			r.Found++
		} else {
			r.Missing = append(r.Missing, role.String()+" "+rep)
		}
	}
	sort.Strings(r.Missing)
	return r
}

// Category is a Table 6 report class.
type Category string

// Table 6 categories.
const (
	TrueVulnerability Category = "true vulnerability"
	VulnFlowNoBug     Category = "vulnerable flow, but no bug"
	IncorrectSink     Category = "incorrect sink"
	IncorrectSource   Category = "incorrect source"
	IncorrectBoth     Category = "incorrect source and sink"
	MissingSanitizer  Category = "missing sanitizer"
	WrongParameter    Category = "flows into wrong parameter"
)

// ClassifyReport assigns a taint report to its Table 6 category using the
// generated flow records and the role oracle.
func ClassifyReport(r *taint.Report, flows []corpus.Flow, truth *corpus.Truth) Category {
	for i := range flows {
		f := &flows[i]
		if f.File != r.File || f.SourceRep != r.SourceRep || f.SinkRep != r.SinkRep {
			continue
		}
		switch {
		case f.WrongParam:
			return WrongParameter
		case f.Sanitized:
			// The analyzer walked through the sanitizer without knowing
			// it: its specification is missing that sanitizer.
			return MissingSanitizer
		case f.Exploitable:
			return TrueVulnerability
		default:
			return VulnFlowNoBug
		}
	}
	srcOK := truth.HasRole(r.SourceRep, propgraph.Source)
	snkOK := truth.HasRole(r.SinkRep, propgraph.Sink)
	switch {
	case !srcOK && !snkOK:
		return IncorrectBoth
	case !snkOK:
		return IncorrectSink
	case !srcOK:
		return IncorrectSource
	default:
		// A real source/sink pair the generator did not plan (e.g. a flow
		// stitched across handlers): vulnerable flow, exploitability
		// unknown.
		return VulnFlowNoBug
	}
}

// ClassifySample classifies up to n randomly sampled reports (the paper
// inspects 25) and returns category counts.
func ClassifySample(reports []taint.Report, flows []corpus.Flow, truth *corpus.Truth, n int, seed int64) map[Category]int {
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(reports))
	if len(idx) > n {
		idx = idx[:n]
	}
	out := make(map[Category]int)
	for _, i := range idx {
		out[ClassifyReport(&reports[i], flows, truth)]++
	}
	return out
}
