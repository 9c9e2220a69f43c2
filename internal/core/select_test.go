package core

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"seldon/internal/corpus"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
)

// referenceSelect is §7.1 as one loop per (event, role): walk the backoff
// options from most to least specific and select the first whose decayed
// score passes the threshold.
func referenceSelect(r *Result, threshold float64) []Prediction {
	sys := r.System
	var out []Prediction
	for _, info := range sys.EventInfos {
		for _, role := range propgraph.Roles() {
			if !info.Roles.Has(role) {
				continue
			}
			for i, sym := range info.RepIDs {
				var score float64
				if id := sys.VarIDSym(sym, role); id >= 0 {
					score = r.Solution[id]
				}
				if math.Pow(backoffDecay, float64(i))*score >= threshold {
					out = append(out, Prediction{EventID: info.EventID, Role: role,
						Rep: sys.Syms.Str(sym), Score: score, Backoff: i})
					break
				}
			}
		}
	}
	return out
}

// referenceLearnedSpec and referenceLearnedEntries derive the learned
// specification and the inferred entries from every prediction.
func referenceLearnedSpec(preds []Prediction, seed *spec.Spec) *spec.Spec {
	s := spec.New()
	for _, e := range seed.Entries() {
		s.Add(e.Role, e.Rep)
	}
	for _, rep := range seed.Sinks {
		if args := seed.SinkArgsOf(rep); args != nil {
			s.RestrictSinkArgs(rep, args...)
		}
	}
	s.Blacklist = seed.Blacklist
	for _, p := range preds {
		s.Add(p.Role, p.Rep)
	}
	return s
}

func referenceLearnedEntries(preds []Prediction, seed *spec.Spec) []spec.Entry {
	type key struct {
		rep  string
		role propgraph.Role
	}
	best := make(map[key]float64)
	for _, p := range preds {
		if k := (key{p.Rep, p.Role}); !seed.RolesOf(p.Rep).Has(p.Role) && p.Score > best[k] {
			best[k] = p.Score
		}
	}
	out := make([]spec.Entry, 0, len(best))
	for k, sc := range best {
		out = append(out, spec.Entry{Rep: k.rep, Role: k.role, Score: sc})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].Role != out[j].Role {
			return out[i].Role < out[j].Role
		}
		return out[i].Rep < out[j].Rep
	})
	return out
}

// TestSelectRolesMatchesPerEventLoop: selection through the per-variable
// reach table predicts what the per-event loop predicts, and the record
// it keeps gives LearnedSpec and LearnedEntries what every prediction
// gives them — at the default threshold and at thresholds placed exactly
// on a decay^i·score, where the comparison's boundary decides.
func TestSelectRolesMatchesPerEventLoop(t *testing.T) {
	seed := corpus.ExperimentSeed()
	res := LearnFromSources(corpus.Generate(corpus.Config{Files: 200, Seed: 5}).FileMap(), seed, Config{Workers: 2})
	if len(res.Predictions) == 0 {
		t.Fatal("learned no prediction")
	}
	thresholds := []float64{0.1}
	for k := 0; k < len(res.Predictions); k += len(res.Predictions)/12 + 1 {
		p := res.Predictions[k]
		for _, i := range []int{p.Backoff, p.Backoff + 1} {
			thresholds = append(thresholds, math.Pow(backoffDecay, float64(i))*p.Score)
		}
	}
	for id := 0; id < len(res.Solution); id += len(res.Solution)/12 + 1 {
		for i := range 3 {
			if on := math.Pow(backoffDecay, float64(i)) * res.Solution[id]; on > 0 {
				thresholds = append(thresholds, on, math.Nextafter(on, 1))
			}
		}
	}
	for _, th := range thresholds {
		res := &Result{Graph: res.Graph, System: res.System, Solution: res.Solution}
		res.selectRoles(Config{Threshold: th})
		preds := referenceSelect(res, th)
		if !reflect.DeepEqual(res.Predictions, preds) && (len(res.Predictions) != 0 || len(preds) != 0) {
			t.Fatalf("threshold %v: %d predictions, the per-event loop %d", th, len(res.Predictions), len(preds))
		}
		if got, want := res.LearnedSpec(seed), referenceLearnedSpec(preds, seed); !reflect.DeepEqual(got, want) {
			t.Fatalf("threshold %v: learned spec of %d entries, from every prediction %d", th, got.Len(), want.Len())
		}
		if got, want := res.LearnedEntries(seed), referenceLearnedEntries(preds, seed); !reflect.DeepEqual(got, want) {
			t.Fatalf("threshold %v: %d learned entries, from every prediction %d", th, len(got), len(want))
		}
	}
	t.Logf("%d thresholds agree", len(thresholds))
}
