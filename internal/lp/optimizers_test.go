package lp

import (
	"math"
	"testing"
)

// Method selects the first-order update rule used by MinimizeWith. The
// paper uses Adam (§4.4); plain projected subgradient descent and AdaGrad
// are the optimizer ablation (BenchmarkOptimizers), interpreted loops that
// live with the tests like the other reference solvers.
type Method int

// Optimization methods.
const (
	Adam Method = iota
	SGD
	AdaGrad
)

func (m Method) String() string {
	switch m {
	case Adam:
		return "adam"
	case SGD:
		return "sgd"
	case AdaGrad:
		return "adagrad"
	}
	return "unknown"
}

// MinimizeWith runs projected first-order descent with the chosen update
// rule on the problem as written, SGD and AdaGrad at step size rate.
// MinimizeWith(p, opts, Adam, 0) is Minimize(p, opts).
func MinimizeWith(p *Problem, opts Options, method Method, rate float64) *Result {
	if method == Adam {
		return Minimize(p, opts)
	}
	opts = opts.withDefaults()
	accum := make([]float64, p.NumVars) // AdaGrad accumulator
	step := func(t int, x, grad []float64, free []bool) {
		for i := range x {
			if !free[i] {
				continue
			}
			g := grad[i]
			switch method {
			case SGD:
				// 1/sqrt(t) step decay for convergence of subgradient descent.
				x[i] -= float64(rate / math.Sqrt(float64(t)) * g)
			case AdaGrad:
				accum[i] += float64(g * g)
				x[i] -= float64(rate / (math.Sqrt(accum[i]) + eps) * g)
			}
			if x[i] < 0 {
				x[i] = 0
			} else if x[i] > 1 {
				x[i] = 1
			}
		}
	}
	return descend(p, opts, p.Objective, unfoldedGradient(p), step, p.TotalViolation)
}

// benchmarkProblem mirrors the shape of real Seldon systems: seeds pinned
// high, hinge constraints pulling free variables up and down.
func optimizerProblem() *Problem {
	p := &Problem{NumVars: 30, C: 0.75, Lambda: 0.05,
		Known: map[int]float64{0: 1, 1: 1, 2: 0}}
	for i := 3; i < 29; i++ {
		p.Constraints = append(p.Constraints,
			Constraint{LHS: []Term{{0, 1}, {1, 1}}, RHS: []Term{{i, 1}}},
			Constraint{LHS: []Term{{i, 1}, {i + 1, 1}}, RHS: []Term{{2, 1}}},
		)
	}
	return p
}

func TestAllMethodsReachSimilarObjectives(t *testing.T) {
	p := optimizerProblem()
	adam := MinimizeWith(p, Options{Iterations: 3000}, Adam, 0)
	sgd := MinimizeWith(p, Options{Iterations: 3000}, SGD, 0.2)
	ada := MinimizeWith(p, Options{Iterations: 3000}, AdaGrad, 0.3)
	for name, r := range map[string]*Result{"adam": adam, "sgd": sgd, "adagrad": ada} {
		if r.Objective > float64(adam.Objective*1.5)+0.5 {
			t.Errorf("%s objective = %v, far from adam's %v", name, r.Objective, adam.Objective)
		}
		for i, v := range r.X {
			if v < 0 || v > 1 {
				t.Fatalf("%s: x[%d] = %v outside box", name, i, v)
			}
		}
		if r.X[0] != 1 || r.X[2] != 0 {
			t.Errorf("%s: known variables moved", name)
		}
	}
}

func TestMinimizeWithAdamMatchesMinimize(t *testing.T) {
	p := optimizerProblem()
	a := Minimize(p, Options{Iterations: 500})
	b := MinimizeWith(p, Options{Iterations: 500}, Adam, 0)
	if a.Objective != b.Objective {
		t.Errorf("objectives differ: %v vs %v", a.Objective, b.Objective)
	}
}

func TestMethodString(t *testing.T) {
	if Adam.String() != "adam" || SGD.String() != "sgd" || AdaGrad.String() != "adagrad" {
		t.Error("method names wrong")
	}
}

func BenchmarkOptimizers(b *testing.B) {
	p := randomishProblem(2000, 20000)
	for _, m := range []Method{Adam, SGD, AdaGrad} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := MinimizeWith(p, Options{Iterations: 100}, m, learnRate)
				b.ReportMetric(r.Objective, "objective")
			}
		})
	}
}
