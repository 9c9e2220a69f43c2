package lp

import "math"

// minimizeReference is the pre-kernel solver loop, kept as the test
// oracle: the equivalence tests check that the compiled kernel of
// kernel.go walks the identical iterate sequence, and the benchmarks
// report the kernel's per-epoch speedup against it. It interprets
// Problem.Constraints directly — no row folding, no active list, every
// term list walked twice per epoch (gradient pass plus a full objective
// recomputation), a map lookup per variable for pinning — so it shares
// none of the code it checks. WarmStart is honoured the way Minimize
// documents it (clamp, then pin), which lets the warm re-solve be held
// to the same oracle as the cold one.
func minimizeReference(p *Problem, opts Options) *Result {
	opts = opts.withDefaults()
	n := p.NumVars
	x := make([]float64, n)
	if len(opts.WarmStart) == n {
		for i, v := range opts.WarmStart {
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			x[i] = v
		}
	}
	pin := func(xs []float64) {
		for v, val := range p.Known {
			if v >= 0 && v < n {
				xs[v] = val
			}
		}
	}
	pin(x)

	grad := make([]float64, n)
	m := make([]float64, n)
	vv := make([]float64, n)
	free := make([]bool, n)
	for i := range free {
		_, pinned := p.Known[i]
		free[i] = !pinned
	}

	best := append([]float64(nil), x...)
	bestObj := p.Objective(x)
	prevObj := math.Inf(1)
	iters := 0
	stale := 0
	tel := newEpochTelemetry(opts, x)

	for t := 1; t <= opts.Iterations; t++ {
		iters = t
		// Subgradient of the hinge terms.
		for i := range grad {
			if free[i] {
				grad[i] = p.Lambda
			} else {
				grad[i] = 0
			}
		}
		for i := range p.Constraints {
			c := &p.Constraints[i]
			if c.Violation(x, p.C) <= 0 {
				continue
			}
			for _, term := range c.LHS {
				grad[term.Var] += term.Coef
			}
			for _, term := range c.RHS {
				grad[term.Var] -= term.Coef
			}
		}
		// Adam update with bias correction, then projection.
		b1t := 1 - math.Pow(opts.Beta1, float64(t))
		b2t := 1 - math.Pow(opts.Beta2, float64(t))
		for i := 0; i < n; i++ {
			if !free[i] {
				continue
			}
			g := grad[i]
			m[i] = opts.Beta1*m[i] + (1-opts.Beta1)*g
			vv[i] = opts.Beta2*vv[i] + (1-opts.Beta2)*g*g
			mHat := m[i] / b1t
			vHat := vv[i] / b2t
			x[i] -= opts.LearnRate * mHat / (math.Sqrt(vHat) + opts.Eps)
			if x[i] < 0 {
				x[i] = 0
			} else if x[i] > 1 {
				x[i] = 1
			}
		}
		pin(x)

		obj := p.Objective(x)
		if obj < bestObj {
			bestObj = obj
			copy(best, x)
			stale = 0
		} else {
			stale++
		}
		tel.emit(p, t, x, grad, free, obj, bestObj)
		if math.Abs(prevObj-obj) < opts.Tolerance {
			break
		}
		if opts.Patience > 0 && stale >= opts.Patience {
			break
		}
		prevObj = obj
	}
	return &Result{
		X:          best,
		Objective:  bestObj,
		Violation:  p.TotalViolation(best),
		Iterations: iters,
	}
}
