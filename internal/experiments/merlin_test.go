// This file is the paper's baseline: Merlin-style taint specification
// inference with factor graphs (§6), adapted to Python.
//
// Differences from Seldon, following the paper's adaptation:
//   - events are represented by their most specific representation only
//     (no backoff, §6.2);
//   - the information-flow beliefs are Fig. 6's four constraint shapes,
//     which restrict the role of specific nodes rather than asserting the
//     existence of some node with a role;
//   - inference is probabilistic (loopy BP or Gibbs) over a factor graph
//     whose size grows with the number of flow triples — the scalability
//     bottleneck reproduced in Table 2.
//
// Merlin may run on either the collapsed (vertex-contracted, §6.4) or the
// uncollapsed propagation graph; callers collapse beforehand if desired.

package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"seldon/internal/propgraph"
	"seldon/internal/spec"
)

// Options configures the baseline.
type Options struct {
	// MaxFactors aborts construction when the factor count exceeds the
	// bound, reproducing the "infeasible on big code" outcome without
	// burning hours. 0 means unlimited.
	MaxFactors int
	// Inference selects the engine.
	Inference Engine
	// Seed for Gibbs sampling; default 1.
	RandSeed int64
}

// wViolate and wOK are the factor scores for assignments that violate or
// respect a Fig. 6 belief.
const wViolate, wOK = 0.1, 0.9

// Engine selects the inference algorithm.
type Engine int

// Inference engines.
const (
	BeliefPropagation Engine = iota
	GibbsSampling
)

// ErrTooLarge is returned when factor construction exceeds MaxFactors.
type ErrTooLarge struct {
	Factors int
	Limit   int
}

func (e *ErrTooLarge) Error() string {
	return fmt.Sprintf("merlin: factor graph exceeds limit (%d > %d factors): inference infeasible", e.Factors, e.Limit)
}

// Result is the outcome of a Merlin run.
type Result struct {
	// Marginals[eventID][role] is the probability of the event having the
	// role (NaN-free; 0 for non-candidates).
	Marginals [][3]float64
	// Candidates counts events that are candidates for each role.
	Candidates [3]int
	// NumFactors is the size of the factor graph.
	NumFactors int
	// Iterations is the number of belief-propagation sweeps run (0 under
	// Gibbs sampling, whose sweep count is an option, not an outcome).
	Iterations int

	graph *propgraph.Graph
}

// Prediction is a (event, role) whose marginal passed a threshold.
type Prediction struct {
	EventID  int
	Role     propgraph.Role
	Rep      string
	Marginal float64
}

// Infer builds the Merlin factor graph for g and runs inference. The seed
// specification pins hard priors (§6.3); its blacklist removes candidates.
func Infer(g *propgraph.Graph, seed *spec.Spec, opts Options) (*Result, error) {
	if opts.RandSeed == 0 {
		opts.RandSeed = 1
	}

	// Variable layout: var(event, role) = 3*event + role, allocated only
	// for candidate roles; non-candidates map to -1.
	varOf := make([][3]int, len(g.Events))
	numVars := 0
	res := &Result{Marginals: make([][3]float64, len(g.Events)), graph: g}
	for i, e := range g.Events {
		for r := range varOf[i] {
			varOf[i][r] = -1
		}
		if g.NumReps(i) == 0 || seed.Blacklisted(g.Rep(i, 0)) {
			continue
		}
		for _, role := range propgraph.Roles() {
			if e.Roles.Has(role) {
				varOf[i][role] = numVars
				numVars++
				res.Candidates[role]++
			}
		}
	}

	fg := &Graph{NumVars: numVars}
	addFactor := func(f Factor) error {
		if err := fg.AddFactor(f); err != nil {
			return err
		}
		if opts.MaxFactors > 0 && len(fg.Factors) > opts.MaxFactors {
			return &ErrTooLarge{Factors: len(fg.Factors), Limit: opts.MaxFactors}
		}
		return nil
	}

	// Reachability lists, computed once and shared by the prior and
	// flow-factor construction.
	reach := &reachability{
		fwd:  make([][]int, len(g.Events)),
		back: make([][]int, len(g.Events)),
	}
	for id := range g.Events {
		reach.fwd[id] = g.ForwardReachable(id)
		reach.back[id] = g.BackwardReachable(id)
	}

	// Priors (§6.3): hard priors for seeded reps; 0.5 for source/sink
	// candidates (omitted: a uniform unary factor is a no-op); sanitizer
	// prior from the fraction of source→·→sink flows through the node.
	if err := addPriors(g, seed, varOf, reach, addFactor); err != nil {
		return res, err
	}
	// Fig. 6 information-flow factors.
	if err := addFlowFactors(g, varOf, reach, addFactor); err != nil {
		return res, err
	}

	res.NumFactors = len(fg.Factors)
	switch opts.Inference {
	case GibbsSampling:
		res.fill(varOf, fg.Gibbs(GibbsOptions{}, rand.New(rand.NewSource(opts.RandSeed))))
	default:
		bp := fg.BeliefPropagation(BPOptions{})
		res.fill(varOf, bp.Marginals)
		res.Iterations = bp.Iterations
	}
	return res, nil
}

func (r *Result) fill(varOf [][3]int, marg []float64) {
	for i := range varOf {
		for role := 0; role < 3; role++ {
			if v := varOf[i][role]; v >= 0 {
				r.Marginals[i][role] = marg[v]
			}
		}
	}
}

// Predict returns the events whose marginal for a role passes threshold,
// sorted by descending marginal.
func (r *Result) Predict(threshold float64) []Prediction {
	var out []Prediction
	for id, m := range r.Marginals {
		for _, role := range propgraph.Roles() {
			if m[role] >= threshold && r.graph.Events[id].Roles.Has(role) && r.graph.NumReps(id) > 0 {
				out = append(out, Prediction{
					EventID: id, Role: role,
					Rep:      r.graph.Rep(id, 0),
					Marginal: m[role],
				})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Marginal > out[j].Marginal })
	return out
}

// TopK returns the k highest-marginal predictions for one role.
func (r *Result) TopK(role propgraph.Role, k int) []Prediction {
	var out []Prediction
	for id, m := range r.Marginals {
		if r.graph.Events[id].Roles.Has(role) && r.graph.NumReps(id) > 0 {
			out = append(out, Prediction{EventID: id, Role: role,
				Rep: r.graph.Rep(id, 0), Marginal: m[role]})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Marginal > out[j].Marginal })
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// reachability caches per-event forward and backward reachable sets.
type reachability struct {
	fwd, back [][]int
}

func addPriors(g *propgraph.Graph, seed *spec.Spec, varOf [][3]int,
	reach *reachability, add func(Factor) error) error {
	// Reachability counts for the sanitizer prior. Hand-labeled events
	// skip the flow prior — their hard prior is authoritative and the two
	// would zero out the factor product.
	for id := range g.Events {
		seeded := g.NumReps(id) > 0 && seed.RolesOf(g.Rep(id, 0)) != 0
		if !seeded && varOf[id][propgraph.Sanitizer] >= 0 {
			fromSrc, total := 0, 0
			for _, u := range reach.back[id] {
				total++
				if varOf[u][propgraph.Source] >= 0 {
					fromSrc++
				}
			}
			toSnk, totalOut := 0, 0
			for _, t := range reach.fwd[id] {
				totalOut++
				if varOf[t][propgraph.Sink] >= 0 {
					toSnk++
				}
			}
			prior := 0.5
			if total > 0 && totalOut > 0 {
				prior = float64(fromSrc) / float64(total) * float64(toSnk) / float64(totalOut)
			}
			// Keep the prior a soft belief, never hard evidence.
			if prior < 0.01 {
				prior = 0.01
			} else if prior > 0.95 {
				prior = 0.95
			}
			if err := add(UnaryFactor(varOf[id][propgraph.Sanitizer], 1-prior, prior)); err != nil {
				return err
			}
		}
		// Hard priors for hand-labeled events (most specific rep only).
		if g.NumReps(id) == 0 {
			continue
		}
		roles := seed.RolesOf(g.Rep(id, 0))
		if roles == 0 {
			continue
		}
		for _, role := range propgraph.Roles() {
			v := varOf[id][role]
			if v < 0 {
				continue
			}
			if roles.Has(role) {
				if err := add(UnaryFactor(v, 0, 1)); err != nil {
					return err
				}
			} else if err := add(UnaryFactor(v, 1, 0)); err != nil {
				return err
			}
		}
	}
	return nil
}

// addFlowFactors adds the Fig. 6 beliefs.
func addFlowFactors(g *propgraph.Graph, varOf [][3]int, reach *reachability,
	add func(Factor) error) error {
	lo, hi := wViolate, wOK

	// Fig. 6a: flow u ⇝ s ⇝ t with candidates (source, sanitizer, sink):
	// if u is a source and t is a sink, s should be a sanitizer.
	table6a := make([]float64, 8)
	for idx := range table6a {
		u, s, t := idx&1 == 1, idx&2 == 2, idx&4 == 4
		if u && t && !s {
			table6a[idx] = lo
		} else {
			table6a[idx] = hi
		}
	}
	// Pairwise "downstream may not repeat the role" beliefs (Fig. 6b-d):
	// index bit0 = upstream var, bit1 = downstream var.
	tableNotBoth := []float64{hi, hi, hi, lo}

	for s := range g.Events {
		if varOf[s][propgraph.Sanitizer] < 0 {
			continue
		}
		backs := reach.back[s]
		fwds := reach.fwd[s]
		for _, u := range backs {
			if varOf[u][propgraph.Source] < 0 {
				continue
			}
			for _, t := range fwds {
				if varOf[t][propgraph.Sink] < 0 {
					continue
				}
				if err := add(Factor{
					Vars: []int{varOf[u][propgraph.Source],
						varOf[s][propgraph.Sanitizer],
						varOf[t][propgraph.Sink]},
					Table: table6a,
				}); err != nil {
					return err
				}
			}
		}
	}

	// Fig. 6b/6c/6d over flow pairs u ⇝ w.
	for u := range g.Events {
		for _, w := range reach.fwd[u] {
			// 6b: sanitizer flows into w ⇒ w unlikely a sanitizer.
			if varOf[u][propgraph.Sanitizer] >= 0 && varOf[w][propgraph.Sanitizer] >= 0 {
				if err := add(Factor{
					Vars:  []int{varOf[u][propgraph.Sanitizer], varOf[w][propgraph.Sanitizer]},
					Table: tableNotBoth,
				}); err != nil {
					return err
				}
			}
			// 6c: source flows into w ⇒ w unlikely a source.
			if varOf[u][propgraph.Source] >= 0 && varOf[w][propgraph.Source] >= 0 {
				if err := add(Factor{
					Vars:  []int{varOf[u][propgraph.Source], varOf[w][propgraph.Source]},
					Table: tableNotBoth,
				}); err != nil {
					return err
				}
			}
			// 6d: w flows into a sink ⇒ w unlikely a sink.
			if varOf[u][propgraph.Sink] >= 0 && varOf[w][propgraph.Sink] >= 0 {
				if err := add(Factor{
					Vars:  []int{varOf[u][propgraph.Sink], varOf[w][propgraph.Sink]},
					Table: tableNotBoth,
				}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
