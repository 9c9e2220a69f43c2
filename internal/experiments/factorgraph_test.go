// This file is the factor-graph engine: discrete factor graphs over binary
// variables with two inference engines written from scratch, loopy belief
// propagation (the sum-product algorithm, Yedidia et al.) and Gibbs
// sampling. It is the substrate for the Merlin baseline (paper §6.3),
// replacing Infer.NET's Expectation Propagation.

package experiments

import (
	"fmt"
	"math"
	"math/rand"
)

// Factor is a potential over a subset of binary variables. Table has
// 2^len(Vars) entries; the entry for an assignment is indexed by the bits
// of the assignment, bit i being the value of Vars[i].
type Factor struct {
	Vars  []int
	Table []float64
}

// UnaryFactor builds a prior factor: p0 for x=0, p1 for x=1.
func UnaryFactor(v int, p0, p1 float64) Factor {
	return Factor{Vars: []int{v}, Table: []float64{p0, p1}}
}

// Graph is a factor graph over NumVars binary variables.
type Graph struct {
	NumVars int
	Factors []Factor
}

// AddFactor appends a factor after validating its shape.
func (g *Graph) AddFactor(f Factor) error {
	if len(f.Table) != 1<<len(f.Vars) {
		return fmt.Errorf("factorgraph: factor over %d vars needs %d entries, got %d",
			len(f.Vars), 1<<len(f.Vars), len(f.Table))
	}
	for _, v := range f.Vars {
		if v < 0 || v >= g.NumVars {
			return fmt.Errorf("factorgraph: variable %d out of range [0,%d)", v, g.NumVars)
		}
	}
	g.Factors = append(g.Factors, f)
	return nil
}

// Score returns the unnormalized probability of a full assignment: the
// product of all factor entries (Eq. 12 of the paper).
func (g *Graph) Score(x []bool) float64 {
	p := 1.0
	for i := range g.Factors {
		f := &g.Factors[i]
		idx := 0
		for b, v := range f.Vars {
			if x[v] {
				idx |= 1 << b
			}
		}
		p *= f.Table[idx]
	}
	return p
}

// BPOptions configures loopy belief propagation.
type BPOptions struct {
	MaxIterations int     // default 100
	Damping       float64 // new = damping*old + (1-damping)*new; default 0.3
	Tolerance     float64 // max message change for convergence; default 1e-6
}

func (o BPOptions) withDefaults() BPOptions {
	if o.MaxIterations == 0 {
		o.MaxIterations = 100
	}
	if o.Damping == 0 {
		o.Damping = 0.3
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-6
	}
	return o
}

// BPResult holds marginals and convergence information.
type BPResult struct {
	// Marginals[i] is the estimated P(x_i = 1).
	Marginals  []float64
	Iterations int
	Converged  bool
}

// BeliefPropagation runs the sum-product algorithm with flooding schedule
// and damping, returning per-variable marginals (Eq. 13).
func (g *Graph) BeliefPropagation(opts BPOptions) *BPResult {
	opts = opts.withDefaults()
	var edges []bpEdge
	varEdges := make([][]int, g.NumVars)      // variable -> incident edge indices
	factorBase := make([]int, len(g.Factors)) // first edge index per factor
	for fi := range g.Factors {
		factorBase[fi] = len(edges)
		for vi, v := range g.Factors[fi].Vars {
			varEdges[v] = append(varEdges[v], len(edges))
			edges = append(edges, bpEdge{fi, vi})
		}
	}
	// Messages are distributions over {0,1}, stored as P(x=1) after
	// normalization; keep both components for numerical clarity.
	msgFV := make([][2]float64, len(edges)) // factor -> variable
	msgVF := make([][2]float64, len(edges)) // variable -> factor
	for i := range edges {
		msgFV[i] = [2]float64{0.5, 0.5}
		msgVF[i] = [2]float64{0.5, 0.5}
	}

	normalize := func(m [2]float64) [2]float64 {
		s := m[0] + m[1]
		if s <= 0 || math.IsNaN(s) {
			return [2]float64{0.5, 0.5}
		}
		return [2]float64{m[0] / s, m[1] / s}
	}

	// Per-variable aggregates for the variable -> factor pass, computed in
	// log space so that products over thousands of incident factors (the
	// degree a collapsed graph produces) neither underflow nor cost
	// O(degree) per outgoing message.
	logSum := make([][2]float64, g.NumVars)
	zeroCount := make([][2]int, g.NumVars)

	iters := 0
	converged := false
	for t := 0; t < opts.MaxIterations; t++ {
		iters = t + 1
		maxDelta := 0.0

		// Aggregate incoming factor -> variable messages per variable.
		for v := 0; v < g.NumVars; v++ {
			logSum[v] = [2]float64{}
			zeroCount[v] = [2]int{}
			for _, ei := range varEdges[v] {
				for bit := 0; bit < 2; bit++ {
					if m := msgFV[ei][bit]; m > 0 {
						logSum[v][bit] += math.Log(m)
					} else {
						zeroCount[v][bit]++
					}
				}
			}
		}

		// Variable -> factor messages: product of all incoming except the
		// target factor's own message, recovered from the aggregates.
		for ei := range edges {
			e := edges[ei]
			v := g.Factors[e.factor].Vars[e.varIdx]
			var m [2]float64
			for bit := 0; bit < 2; bit++ {
				in := msgFV[ei][bit]
				switch {
				case in > 0 && zeroCount[v][bit] > 0:
					m[bit] = 0 // some other incoming message is zero
				case in > 0:
					m[bit] = math.Exp(logSum[v][bit] - math.Log(in))
				case zeroCount[v][bit] > 1:
					m[bit] = 0 // another zero remains after excluding ours
				default:
					m[bit] = math.Exp(logSum[v][bit])
				}
			}
			m = normalize(m)
			old := msgVF[ei]
			m[0] = opts.Damping*old[0] + (1-opts.Damping)*m[0]
			m[1] = opts.Damping*old[1] + (1-opts.Damping)*m[1]
			m = normalize(m)
			msgVF[ei] = m
		}

		// Factor -> variable messages.
		for ei := range edges {
			e := edges[ei]
			f := &g.Factors[e.factor]
			k := len(f.Vars)
			var m [2]float64
			for idx, val := range f.Table {
				p := val
				for b := 0; b < k; b++ {
					if b == e.varIdx {
						continue
					}
					// Edges are factor-major: slot b of this factor is at
					// a fixed offset from the factor's first edge.
					nei := factorBase[e.factor] + b
					bit := (idx >> b) & 1
					p *= msgVF[nei][bit]
				}
				m[(idx>>e.varIdx)&1] += p
			}
			m = normalize(m)
			old := msgFV[ei]
			m[0] = opts.Damping*old[0] + (1-opts.Damping)*m[0]
			m[1] = opts.Damping*old[1] + (1-opts.Damping)*m[1]
			m = normalize(m)
			if d := math.Abs(m[1] - old[1]); d > maxDelta {
				maxDelta = d
			}
			msgFV[ei] = m
		}

		if maxDelta < opts.Tolerance {
			converged = true
			break
		}
	}

	// Beliefs, again via log sums to survive high variable degrees.
	marginals := make([]float64, g.NumVars)
	for v := 0; v < g.NumVars; v++ {
		ls := [2]float64{}
		zc := [2]int{}
		for _, ei := range varEdges[v] {
			for bit := 0; bit < 2; bit++ {
				if m := msgFV[ei][bit]; m > 0 {
					ls[bit] += math.Log(m)
				} else {
					zc[bit]++
				}
			}
		}
		var b [2]float64
		shift := math.Max(ls[0], ls[1])
		for bit := 0; bit < 2; bit++ {
			if zc[bit] > 0 {
				b[bit] = 0
			} else {
				b[bit] = math.Exp(ls[bit] - shift)
			}
		}
		b = normalize(b)
		marginals[v] = b[1]
	}
	return &BPResult{Marginals: marginals, Iterations: iters, Converged: converged}
}

// bpEdge identifies one (factor, variable-slot) connection.
type bpEdge struct {
	factor, varIdx int // varIdx indexes Factors[factor].Vars
}

// GibbsOptions configures Gibbs sampling.
type GibbsOptions struct {
	Burn    int // burn-in sweeps; default 100
	Samples int // recorded sweeps; default 400
}

func (o GibbsOptions) withDefaults() GibbsOptions {
	if o.Burn == 0 {
		o.Burn = 100
	}
	if o.Samples == 0 {
		o.Samples = 400
	}
	return o
}

// Gibbs estimates marginals by Gibbs sampling. The caller provides the
// random source for reproducibility.
func (g *Graph) Gibbs(opts GibbsOptions, rng *rand.Rand) []float64 {
	opts = opts.withDefaults()
	x := make([]bool, g.NumVars)
	for i := range x {
		x[i] = rng.Intn(2) == 1
	}
	// Per-variable incident factors.
	incident := make([][]int, g.NumVars)
	for fi := range g.Factors {
		for _, v := range g.Factors[fi].Vars {
			incident[v] = append(incident[v], fi)
		}
	}
	localScore := func(v int, val bool) float64 {
		x[v] = val
		p := 1.0
		for _, fi := range incident[v] {
			f := &g.Factors[fi]
			idx := 0
			for b, fv := range f.Vars {
				if x[fv] {
					idx |= 1 << b
				}
			}
			p *= f.Table[idx]
		}
		return p
	}
	counts := make([]float64, g.NumVars)
	total := 0
	for sweep := 0; sweep < opts.Burn+opts.Samples; sweep++ {
		for v := 0; v < g.NumVars; v++ {
			p0 := localScore(v, false)
			p1 := localScore(v, true)
			if p0+p1 <= 0 {
				x[v] = rng.Intn(2) == 1
				continue
			}
			x[v] = rng.Float64() < p1/(p0+p1)
		}
		if sweep >= opts.Burn {
			total++
			for v, b := range x {
				if b {
					counts[v]++
				}
			}
		}
	}
	for v := range counts {
		counts[v] /= float64(total)
	}
	return counts
}
