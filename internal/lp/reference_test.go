package lp

import (
	"encoding/binary"
	"math"
	"sort"
	"time"
)

// This file holds the interpreted solvers the tests compare the kernel
// against. None of them shares code with kernel.go: they walk
// Problem.Constraints term list by term list, look pins up in the map, and
// recompute the objective from nothing after every update.
//
// minimizeReference is the oracle, bit for bit: it defines the canonical
// evaluation of the folded objective
//
//	Σ_g n_g · max(L_g − R_g − C, 0) + λ Σ_free x_v
//
// where g ranges over the distinct constraints in order of first occurrence
// and n_g counts the copies. minimizeUnfolded is the loop the solver ran
// before the reduction was folded — one hinge and one gradient contribution
// per constraint, in constraint order — kept to show that folding changed
// the rounding and not the mathematics (TestFoldedReferenceMatchesUnfolded).

// refGroup is one distinct constraint and the number of its copies.
type refGroup struct {
	c *Constraint
	n float64
}

// foldReference groups p's constraints by their exact flattened term list
// — LHS, then RHS negated; variable, coefficient bits, order — in order of
// first occurrence.
func foldReference(p *Problem) []refGroup {
	var groups []refGroup
	index := map[string]int{}
	var key []byte
	term := func(v int, coef float64) {
		key = binary.LittleEndian.AppendUint64(key, uint64(v))
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(coef))
	}
	for i := range p.Constraints {
		c := &p.Constraints[i]
		key = key[:0]
		for _, t := range c.LHS {
			term(t.Var, t.Coef)
		}
		for _, t := range c.RHS {
			term(t.Var, -t.Coef)
		}
		if g, ok := index[string(key)]; ok {
			groups[g].n++
			continue
		}
		index[string(key)] = len(groups)
		groups = append(groups, refGroup{c: c, n: 1})
	}
	return groups
}

// slack is L − R − C at x, unclamped.
func slack(c *Constraint, x []float64, C float64) float64 {
	v := -C
	for _, t := range c.LHS {
		v += float64(t.Coef * x[t.Var])
	}
	for _, t := range c.RHS {
		v -= float64(t.Coef * x[t.Var])
	}
	return v
}

// refStart is the start iterate both references share: the warm vector
// clamped into the box when it has the right length, zeros otherwise, pins
// on top.
func refStart(p *Problem, opts Options) (x []float64, free []bool, pin func([]float64)) {
	n := p.NumVars
	x = make([]float64, n)
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
	pin = func(xs []float64) {
		for v, val := range p.Known {
			if v >= 0 && v < n {
				xs[v] = val
			}
		}
	}
	pin(x)
	free = make([]bool, n)
	for i := range free {
		_, pinned := p.Known[i]
		free[i] = !pinned
	}
	return x, free, pin
}

// adamStep is one bias-corrected Adam update of the free variables, at the
// step epoch t's place in the schedule gives, followed by the projection
// onto [0,1].
func adamStep(t int, x, grad, m, vv []float64, free []bool) {
	b1t := 1 - math.Pow(beta1, float64(t))
	b2t := 1 - math.Pow(beta2, float64(t))
	rate := learnRate / math.Sqrt(1+float64(t)/stepDecay)
	for i := range x {
		if !free[i] {
			continue
		}
		g := grad[i]
		m[i] = float64(beta1*m[i]) + float64((1-beta1)*g)
		vv[i] = float64(beta2*vv[i]) + float64((1-beta2)*g*g)
		mHat := m[i] / b1t
		vHat := vv[i] / b2t
		x[i] -= rate * mHat / (math.Sqrt(vHat) + eps)
		if x[i] < 0 {
			x[i] = 0
		} else if x[i] > 1 {
			x[i] = 1
		}
	}
}

// descend is the loop every interpreted solver here runs: gradient at x,
// update, re-pin, objective of the new x, best/stale bookkeeping, stop on
// tolerance or on the plateau window (Options.Patience, 25 epochs when
// zero), Options.Iterations being the cap. The solvers differ in how they
// evaluate the objective and the gradient and in the update rule.
func descend(p *Problem, opts Options,
	objective func(x []float64) float64,
	gradient func(x, grad []float64),
	step func(t int, x, grad []float64, free []bool),
	violation func(x []float64) float64,
) *Result {
	x, free, pin := refStart(p, opts)
	grad := make([]float64, p.NumVars)
	best := append([]float64(nil), x...)
	bestObj := objective(x)
	prevObj := math.Inf(1)
	iters, stale := 0, 0
	stop := StopCap
	tel := newRefTelemetry(opts, x)
	for t := 1; t <= opts.Iterations; t++ {
		iters = t
		for i := range grad {
			if free[i] {
				grad[i] = p.Lambda
			} else {
				grad[i] = 0
			}
		}
		gradient(x, grad)
		step(t, x, grad, free)
		pin(x)
		obj := objective(x)
		if obj < bestObj {
			bestObj = obj
			copy(best, x)
			stale = 0
		} else {
			stale++
		}
		tel.emit(p, t, x, grad, free, obj, bestObj)
		if math.Abs(prevObj-obj) < tolerance {
			stop = StopTolerance
			break
		}
		if opts.Patience > 0 && stale >= opts.Patience {
			stop = StopPlateau
			break
		}
		prevObj = obj
	}
	return &Result{X: best, Objective: bestObj, Violation: violation(best), Iterations: iters, Stop: stop}
}

// minimizeReference is projected Adam on the folded problem, interpreted.
// The hinge total and every gradient entry are sums over the violated
// groups in first-occurrence order, each group contributing its value times
// its multiplicity, rounded once; the L1 term is λ times the sum of all of
// x less the λ-weighted pinned values in ascending variable order.
func minimizeReference(p *Problem, opts Options) *Result {
	opts = opts.withDefaults()
	groups := foldReference(p)

	var pinned []int
	for v := range p.Known {
		if v >= 0 && v < p.NumVars {
			pinned = append(pinned, v)
		}
	}
	sort.Ints(pinned)
	pinnedL1 := 0.0
	for _, v := range pinned {
		pinnedL1 += float64(p.Lambda * p.Known[v])
	}

	hinge := func(x []float64) float64 {
		total := 0.0
		for _, g := range groups {
			if v := slack(g.c, x, p.C); v > 0 {
				total += float64(g.n * v)
			}
		}
		return total
	}
	objective := func(x []float64) float64 {
		sum := 0.0
		for _, xi := range x {
			sum += xi
		}
		return hinge(x) + float64(p.Lambda*sum) - pinnedL1
	}
	gradient := func(x, grad []float64) {
		for _, g := range groups {
			if !(slack(g.c, x, p.C) > 0) {
				continue
			}
			for _, t := range g.c.LHS {
				grad[t.Var] += float64(g.n * t.Coef)
			}
			for _, t := range g.c.RHS {
				grad[t.Var] -= float64(g.n * t.Coef)
			}
		}
	}
	m, vv := make([]float64, p.NumVars), make([]float64, p.NumVars)
	step := func(t int, x, grad []float64, free []bool) { adamStep(t, x, grad, m, vv, free) }
	return descend(p, opts, objective, gradient, step, hinge)
}

// unfoldedGradient adds the hinge subgradient at x onto grad, one
// contribution per violated constraint in constraint order.
func unfoldedGradient(p *Problem) func(x, grad []float64) {
	return func(x, grad []float64) {
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
	}
}

// TotalViolation returns the hinge part of Problem.Objective only.
func (p *Problem) TotalViolation(x []float64) float64 {
	total := 0.0
	for i := range p.Constraints {
		total += p.Constraints[i].Violation(x, p.C)
	}
	return total
}

// minimizeUnfolded is projected Adam on the problem as written: the
// objective is Problem.Objective, every copy of a constraint rounds into
// the sums on its own.
func minimizeUnfolded(p *Problem, opts Options) *Result {
	opts = opts.withDefaults()
	m, vv := make([]float64, p.NumVars), make([]float64, p.NumVars)
	step := func(t int, x, grad []float64, free []bool) { adamStep(t, x, grad, m, vv, free) }
	return descend(p, opts, p.Objective, unfoldedGradient(p), step, p.TotalViolation)
}

// refTelemetry emits EpochStats for the interpreted solvers, re-deriving
// every quantity from the problem and the iterate: the hinge total and the
// violated count by a walk over the constraints as written (so Active
// counts constraints whatever the solver folds), the step norm against the
// previous iterate it keeps.
type refTelemetry struct {
	hook  func(EpochStats)
	start time.Time
	prevX []float64
}

func newRefTelemetry(opts Options, x []float64) *refTelemetry {
	if opts.OnEpoch == nil {
		return nil
	}
	return &refTelemetry{hook: opts.OnEpoch, start: time.Now(), prevX: append([]float64(nil), x...)}
}

func (rt *refTelemetry) emit(p *Problem, epoch int, x, grad []float64, free []bool, obj, best float64) {
	if rt == nil {
		return
	}
	hinge, active := 0.0, 0
	for i := range p.Constraints {
		if v := p.Constraints[i].Violation(x, p.C); v > 0 {
			hinge += v
			active++
		}
	}
	gradSq, stepSq := 0.0, 0.0
	for i := range x {
		if !free[i] {
			continue
		}
		gradSq += float64(grad[i] * grad[i])
		d := x[i] - rt.prevX[i]
		stepSq += float64(d * d)
	}
	copy(rt.prevX, x)
	rt.hook(EpochStats{
		Epoch:     epoch,
		Objective: obj,
		Best:      best,
		Violation: hinge,
		Active:    active,
		L1:        obj - hinge,
		GradNorm:  math.Sqrt(gradSq),
		StepSize:  math.Sqrt(stepSq),
		Elapsed:   time.Since(rt.start),
	})
}
