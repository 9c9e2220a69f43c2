package lp

import (
	"math"
	"testing"
	"testing/quick"
)

func solve(t *testing.T, p *Problem, opts Options) *Result {
	t.Helper()
	r := Minimize(p, opts)
	if len(r.X) != p.NumVars {
		t.Fatalf("len(X) = %d, want %d", len(r.X), p.NumVars)
	}
	return r
}

func TestEmptySeedIsAllZero(t *testing.T) {
	// Without known variables, all-zero satisfies every constraint and
	// minimizes the L1 term — the paper's Q6 trivial solution.
	p := &Problem{
		NumVars: 3,
		C:       0.75,
		Lambda:  0.1,
		Constraints: []Constraint{
			{LHS: []Term{{0, 1}, {1, 1}}, RHS: []Term{{2, 1}}},
		},
		Known: map[int]float64{},
	}
	r := solve(t, p, Options{})
	for i, v := range r.X {
		if v != 0 {
			t.Errorf("x[%d] = %v, want 0", i, v)
		}
	}
}

func TestSeedPropagatesThroughConstraint(t *testing.T) {
	// Known source (x0=1) with constraint x0 + x1 <= x2 + C:
	// the solver must raise x2 (or keep x1 low) so violation vanishes.
	p := &Problem{
		NumVars: 3,
		C:       0.75,
		Lambda:  0.01,
		Constraints: []Constraint{
			// x0 (known source) alone on the left against x2: x0 <= x2 + C
			{LHS: []Term{{0, 1}}, RHS: []Term{{2, 1}}},
		},
		Known: map[int]float64{0: 1},
	}
	r := solve(t, p, Options{Iterations: 2000})
	if r.X[0] != 1 {
		t.Errorf("known var moved: %v", r.X[0])
	}
	// Violation of x0 <= x2 + 0.75 at optimum: x2 should rise to ~0.25
	// (violation gradient 1 beats lambda 0.01).
	if r.X[2] < 0.2 {
		t.Errorf("x2 = %v, want >= 0.2", r.X[2])
	}
	if got := p.TotalViolation(r.X); got > 0.05 {
		t.Errorf("violation = %v", got)
	}
}

func TestLambdaSuppressesWeakEvidence(t *testing.T) {
	// With a large lambda, raising x2 costs more than the violation it
	// removes only if gradient ordering is respected; violation gradient
	// is 1 and lambda is 2, so x2 must stay at 0.
	p := &Problem{
		NumVars:     2,
		C:           0.75,
		Lambda:      2,
		Constraints: []Constraint{{LHS: []Term{{0, 1}}, RHS: []Term{{1, 1}}}},
		Known:       map[int]float64{0: 1},
	}
	r := solve(t, p, Options{Iterations: 1000})
	if r.X[1] > 0.01 {
		t.Errorf("x1 = %v, want 0 under heavy regularization", r.X[1])
	}
}

func TestBoxConstraintsHold(t *testing.T) {
	p := &Problem{
		NumVars: 4,
		C:       0.75,
		Lambda:  0.1,
		Constraints: []Constraint{
			{LHS: []Term{{0, 1}, {1, 1}}, RHS: []Term{{2, 0.5}, {3, 0.5}}},
			{LHS: []Term{{2, 1}}, RHS: nil},
		},
		Known: map[int]float64{0: 1, 1: 1},
	}
	r := solve(t, p, Options{Iterations: 500})
	for i, v := range r.X {
		if v < 0 || v > 1 {
			t.Errorf("x[%d] = %v outside [0,1]", i, v)
		}
	}
}

func TestObjectiveNeverBelowLowerBound(t *testing.T) {
	// Known x0=x1=1 with constraint x0 + x1 <= x2 + 0.75 forces either
	// violation or x2-regularization cost; optimum is
	// min over x2 of max(2 - x2 - 0.75, 0) + 0.1*x2 = 0.25 + 0.1 at x2=1.
	p := &Problem{
		NumVars:     3,
		C:           0.75,
		Lambda:      0.1,
		Constraints: []Constraint{{LHS: []Term{{0, 1}, {1, 1}}, RHS: []Term{{2, 1}}}},
		Known:       map[int]float64{0: 1, 1: 1},
	}
	r := solve(t, p, Options{Iterations: 3000})
	want := 0.35
	if r.Objective < want-1e-6 {
		t.Errorf("objective = %v below the analytic optimum %v", r.Objective, want)
	}
	if r.Objective > want+0.02 {
		t.Errorf("objective = %v, want close to %v", r.Objective, want)
	}
	if r.X[2] < 0.95 {
		t.Errorf("x2 = %v, want ~1", r.X[2])
	}
}

func TestAveragedBackoffTerms(t *testing.T) {
	// Terms with coefficient 1/2 model two backoff options sharing the
	// score mass: raising either representation helps.
	p := &Problem{
		NumVars: 3,
		C:       0.75,
		Lambda:  0.01,
		Constraints: []Constraint{
			{LHS: []Term{{0, 1}}, RHS: []Term{{1, 0.5}, {2, 0.5}}},
		},
		Known: map[int]float64{0: 1},
	}
	r := solve(t, p, Options{Iterations: 3000})
	if avg := 0.5*r.X[1] + 0.5*r.X[2]; avg < 0.2 {
		t.Errorf("averaged RHS = %v, want >= 0.2", avg)
	}
}

func TestDeterminism(t *testing.T) {
	p := &Problem{
		NumVars: 5,
		C:       0.75,
		Lambda:  0.1,
		Constraints: []Constraint{
			{LHS: []Term{{0, 1}, {1, 1}}, RHS: []Term{{2, 1}, {3, 1}}},
			{LHS: []Term{{2, 1}, {4, 1}}, RHS: []Term{{3, 1}}},
		},
		Known: map[int]float64{0: 1},
	}
	a := Minimize(p, Options{Iterations: 200})
	b := Minimize(p, Options{Iterations: 200})
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatalf("non-deterministic solve: x[%d] %v vs %v", i, a.X[i], b.X[i])
		}
	}
}

func TestViolationComputation(t *testing.T) {
	c := Constraint{LHS: []Term{{0, 1}, {1, 1}}, RHS: []Term{{2, 1}}}
	x := []float64{0.9, 0.8, 0.2}
	got := c.Violation(x, 0.75)
	want := 0.9 + 0.8 - 0.2 - 0.75
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("violation = %v, want %v", got, want)
	}
	if v := c.Violation([]float64{0, 0, 1}, 0.75); v != 0 {
		t.Errorf("satisfied constraint has violation %v", v)
	}
}

// Property: the solution always lies in the box and known variables are
// exactly pinned, for random small problems.
func TestSolutionInvariants(t *testing.T) {
	f := func(seedVals []bool, edges []uint8) bool {
		n := 6
		p := &Problem{NumVars: n, C: 0.75, Lambda: 0.1, Known: map[int]float64{}}
		for i, b := range seedVals {
			if i >= n {
				break
			}
			if b {
				p.Known[i] = 1
			}
		}
		for i := 0; i+2 < len(edges); i += 3 {
			a, b, c := int(edges[i])%n, int(edges[i+1])%n, int(edges[i+2])%n
			p.Constraints = append(p.Constraints, Constraint{
				LHS: []Term{{a, 1}, {b, 1}}, RHS: []Term{{c, 1}},
			})
		}
		r := Minimize(p, Options{Iterations: 60})
		for i, v := range r.X {
			if v < 0 || v > 1 {
				return false
			}
			if want, ok := p.Known[i]; ok && v != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the reported best objective is never worse than the objective
// of the all-zero (pinned) start point.
func TestNeverWorseThanStart(t *testing.T) {
	f := func(edges []uint8) bool {
		n := 5
		p := &Problem{NumVars: n, C: 0.75, Lambda: 0.1,
			Known: map[int]float64{0: 1}}
		for i := 0; i+1 < len(edges); i += 2 {
			a, b := int(edges[i])%n, int(edges[i+1])%n
			p.Constraints = append(p.Constraints, Constraint{
				LHS: []Term{{a, 1}}, RHS: []Term{{b, 1}},
			})
		}
		start := make([]float64, n)
		start[0] = 1
		r := Minimize(p, Options{Iterations: 80})
		return r.Objective <= p.Objective(start)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestStopReason: Result.Stop names the rule that ended the solve.
func TestStopReason(t *testing.T) {
	p := warmFixture()
	// With no seed the start point is the optimum and nothing moves.
	still := &Problem{NumVars: 2, C: 0.75, Lambda: 0.1,
		Constraints: []Constraint{{LHS: []Term{{0, 1}}, RHS: []Term{{1, 1}}}}}
	for _, tc := range []struct {
		name string
		p    *Problem
		opts Options
		want StopReason
	}{
		{"plateau", p, Options{}, StopPlateau},
		{"cap", p, Options{Iterations: 5}, StopCap},
		{"no epochs", p, Options{Iterations: -1}, StopCap},
		{"tolerance", still, Options{}, StopTolerance},
	} {
		if r := Minimize(tc.p, tc.opts); r.Stop != tc.want {
			t.Errorf("%s: stopped on %v after %d epochs, want %v", tc.name, r.Stop, r.Iterations, tc.want)
		}
	}
}
