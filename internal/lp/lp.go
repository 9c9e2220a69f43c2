// Package lp solves the relaxed linear constraint systems produced by
// taint-specification inference (paper §4.4).
//
// A problem is a set of soft constraints  L_i(x) ≤ R_i(x) + C  over
// variables box-constrained to [0,1], some of which are pinned to known
// values (the hand-labeled seed). The objective is the total hinge
// violation plus an L1 regularizer:
//
//	min Σ_i max(L_i(x) − R_i(x) − C, 0) + λ Σ_v x_v
//
// It is minimized by full-batch projected (sub)gradient descent with the
// Adam update rule (Kingma & Ba, 2014), reimplemented here from scratch;
// variables are projected back to [0,1] and known variables re-pinned
// after every step, exactly as the paper describes doing on top of
// TensorFlow's Adam optimizer.
//
// The paper does not say how long to run it. Here epoch t steps by
// 0.05/√(1 + t/10) — Kingma & Ba's convergence bound (their §4) is for a
// step that decays as 1/√t, and on a hinge objective a step that never
// shrinks leaves the iterate jittering around the optimum at the step's
// own scale, so that the answer depends on the epoch it was read at — and
// every solve, from zeros or from a previous solution, stops when the best
// objective has not improved for Options.Patience epochs (25 by default).
// Options.Iterations caps a solve that never gets there, and Result.Stop
// says which of the two ended it.
//
// Big code repeats its constraints, and the solver evaluates the sum the
// way that makes cheap: once per distinct constraint, in order of first
// occurrence, times the number of copies (see kernel.go). The solution is
// a function of the constraints and of the order in which the distinct
// ones first appear; where the copies sit does not matter.
package lp

import "sort"

// Term is one linear summand: Coef * x[Var].
type Term struct {
	Var  int
	Coef float64
}

// Constraint is a soft constraint  Σ LHS ≤ Σ RHS + C.
type Constraint struct {
	LHS []Term
	RHS []Term
}

// Violation returns max(L − R − C, 0) for the given assignment.
func (c *Constraint) Violation(x []float64, C float64) float64 {
	v := -C
	for _, t := range c.LHS {
		v += float64(t.Coef * x[t.Var])
	}
	for _, t := range c.RHS {
		v -= float64(t.Coef * x[t.Var])
	}
	if v < 0 {
		return 0
	}
	return v
}

// Problem is a relaxed constraint system.
type Problem struct {
	NumVars     int
	Constraints []Constraint
	C           float64 // implication-strength constant (paper: 0.75)
	Lambda      float64 // L1 regularization weight (paper: 0.1)
	Known       map[int]float64

	// Blocks, when they add up to len(Constraints), say where the
	// constraints came from: consecutive runs, each taken whole from a
	// source that vouches, by the key, for the run's exact content — equal
	// keys, equal constraints, term for term. A solver handed a standing
	// RowTable compiles a run it has seen under the same key by lookup.
	// Nothing else reads them; a problem without blocks is compiled
	// constraint by constraint.
	Blocks []Block

	// mask caches the compiled view of Known (free-variable mask, sorted
	// pinned indices, pinned-L1 constant), shared by Objective and the
	// solver kernel. It is rebuilt when NumVars or len(Known) change; do
	// not mutate Known from one goroutine while another evaluates the
	// problem.
	mask *problemMask
}

// Block is one run of a Problem's constraints: its length and the key of
// its content (see Problem.Blocks).
type Block struct {
	Key [32]byte
	N   int
}

// problemMask is the precomputed view of Problem.Known.
type problemMask struct {
	numVars  int
	numKnown int
	// free[v] reports that v is not pinned; it replaces a map lookup per
	// variable on every objective evaluation.
	free []bool
	// pinIdx/pinVal list the valid pinned variables in ascending order.
	pinIdx []int32
	pinVal []float64
	// pinnedL1 is λ · Σ Known — the L1 mass of the pinned block, a
	// constant whenever x carries its pinned values.
	pinnedL1 float64
}

// masks returns the cached compiled view of Known, rebuilding it if the
// problem shape changed since the last call.
func (p *Problem) masks() *problemMask {
	if m := p.mask; m != nil && m.numVars == p.NumVars && m.numKnown == len(p.Known) {
		return m
	}
	m := &problemMask{
		numVars:  p.NumVars,
		numKnown: len(p.Known),
		free:     make([]bool, p.NumVars),
	}
	for i := range m.free {
		m.free[i] = true
	}
	for v := range p.Known {
		if v >= 0 && v < p.NumVars {
			m.free[v] = false
			m.pinIdx = append(m.pinIdx, int32(v))
		}
	}
	sort.Slice(m.pinIdx, func(i, j int) bool { return m.pinIdx[i] < m.pinIdx[j] })
	m.pinVal = make([]float64, len(m.pinIdx))
	for i, v := range m.pinIdx {
		m.pinVal[i] = p.Known[int(v)]
		m.pinnedL1 += float64(p.Lambda * m.pinVal[i])
	}
	p.mask = m
	return m
}

// Pin records v as a known (hand-labeled or operator-pinned) variable
// with the given value and invalidates the compiled mask, so a solver
// run after the call sees the new pin. It is the supported way to add
// feedback pins on top of an already-built system — mutating Known
// directly can leave a stale cached mask when the entry count happens
// not to change.
func (p *Problem) Pin(v int, val float64) {
	if v < 0 || v >= p.NumVars {
		return
	}
	if p.Known == nil {
		p.Known = make(map[int]float64)
	}
	p.Known[v] = val
	p.mask = nil
}

// Objective evaluates the relaxed objective at x.
func (p *Problem) Objective(x []float64) float64 {
	free := p.masks().free
	obj := 0.0
	for i := range p.Constraints {
		obj += p.Constraints[i].Violation(x, p.C)
	}
	for v := 0; v < p.NumVars; v++ {
		if free[v] {
			obj += float64(p.Lambda * x[v])
		}
	}
	return obj
}

// Adam's first step, the number of epochs over which it decays (epoch t
// steps by learnRate/√(1+t/stepDecay)), moment decays and epsilon (Kingma &
// Ba's defaults but for the step), and the objective change below which a
// solve stops. They are typed so that 1-beta1 rounds as the float64
// subtraction does.
const (
	learnRate float64 = 0.05
	stepDecay float64 = 10
	beta1     float64 = 0.9
	beta2     float64 = 0.999
	eps       float64 = 1e-8
	tolerance float64 = 1e-6
)

// Options configures the solver.
type Options struct {
	// Iterations caps the epochs of a solve that does not stop on its own
	// (400 when zero; negative runs none). A solve that reaches the cap has
	// not converged: Result.Stop is StopCap.
	Iterations int
	// OnEpoch, when non-nil, is invoked after every epoch with that
	// epoch's convergence statistics (objective, hinge violation, L1
	// term, gradient norm, step size, wall time). Leaving it nil keeps
	// the solver on its telemetry-free fast path.
	OnEpoch func(EpochStats)
	// WarmStart, when its length equals Problem.NumVars, seeds the
	// iterate with a previous solution instead of all zeros: values are
	// clamped to [0,1] and pinned variables are re-pinned on top. A
	// vector of any other length is ignored (cold start). Only the start
	// point changes: Adam's moment estimates still begin at zero and the
	// step schedule at its first epoch, so a warm solve walks the same
	// descent dynamics from a closer iterate and stops as soon as a
	// window passes without an improvement on it (Result.Iterations).
	WarmStart []float64
	// Patience is the plateau window: the solve stops after that many
	// consecutive epochs without a best-objective improvement (25 when
	// zero). It is the stopping rule of every solve — the per-epoch
	// objective of a subgradient method is not monotone, so the tolerance
	// check rarely fires — and, with the decaying step, what makes the
	// returned iterate a property of the problem rather than of the epoch
	// budget.
	Patience int
	// Rows, when non-nil, is a standing row table the kernel compiles the
	// problem into and leaves for the next solve (see RowTable): the blocks
	// of Problem.Blocks it has already seen cost a lookup instead of an
	// insertion into the trie. The result is bit-for-bit the one a nil Rows
	// gives. The table must not be shared by concurrent solves.
	Rows *RowTable
}

func (o Options) withDefaults() Options {
	if o.Iterations == 0 {
		o.Iterations = 400
	}
	if o.Patience == 0 {
		o.Patience = 25
	}
	return o
}

// StopReason says why a solve returned.
type StopReason string

const (
	// StopCap: Options.Iterations epochs ran out. The solve did not
	// converge; Result holds the best iterate it had reached.
	StopCap StopReason = "cap"
	// StopPlateau: Options.Patience epochs passed without a better
	// objective than the best so far.
	StopPlateau StopReason = "plateau"
	// StopTolerance: two consecutive objectives agreed to within 1e-6.
	StopTolerance StopReason = "tolerance"
)

// Result holds the solver output.
type Result struct {
	X          []float64
	Objective  float64
	Violation  float64
	Iterations int
	Stop       StopReason
	// Rows is the number of distinct constraint rows the compiled kernel
	// solved over; len(Problem.Constraints)/Rows is the corpus's constraint
	// duplication.
	Rows int
	// RowsReused counts the constraints whose row came from a block the
	// standing table (Options.Rows) remembered, RowsDead the trie nodes of
	// that table no row of this problem runs through (each still costs a
	// multiply-add an epoch); both 0 without one.
	RowsReused int
	RowsDead   int
}

// Minimize runs projected Adam on the problem and returns the best
// assignment found. The start point is all zeros with known variables
// pinned (so an empty seed yields the trivial all-zero optimum, matching
// the paper's Q6 observation). The solve runs on the compiled kernel of
// kernel.go — duplicate constraints folded into distinct rows that count
// for as many as they stand for, rows sharing a prefix of terms sharing
// its partial sum, violation, gradient, and objective fused into one pass
// per epoch — and is bit-for-bit reproducible with or without
// Options.Rows.
func Minimize(p *Problem, opts Options) *Result {
	return minimizeKernel(p, opts.withDefaults())
}
