package lp

import (
	"math"
	"testing"
)

// convexToy is the seed-propagation problem of TestSeedPropagatesThroughConstraint:
// one hinge plus L1, convex in the free variables.
func convexToy() *Problem {
	return &Problem{
		NumVars: 3,
		C:       0.75,
		Lambda:  0.01,
		Constraints: []Constraint{
			{LHS: []Term{{0, 1}}, RHS: []Term{{2, 1}}},
		},
		Known: map[int]float64{0: 1},
	}
}

func TestOnEpochFiresEveryEpoch(t *testing.T) {
	var stats []EpochStats
	opts := Options{Iterations: 500, OnEpoch: func(s EpochStats) { stats = append(stats, s) }}
	r := Minimize(convexToy(), opts)

	if len(stats) != r.Iterations {
		t.Fatalf("hook fired %d times, solver ran %d epochs", len(stats), r.Iterations)
	}
	for i, s := range stats {
		if s.Epoch != i+1 {
			t.Fatalf("stats[%d].Epoch = %d, want %d", i, s.Epoch, i+1)
		}
		if math.Abs(s.Objective-(s.Violation+s.L1)) > 1e-9 {
			t.Errorf("epoch %d: objective %v != violation %v + l1 %v",
				s.Epoch, s.Objective, s.Violation, s.L1)
		}
		if s.Violation < 0 || s.L1 < 0 || s.GradNorm < 0 || s.StepSize < 0 {
			t.Errorf("epoch %d: negative stat: %+v", s.Epoch, s)
		}
		if i > 0 && s.Elapsed < stats[i-1].Elapsed {
			t.Errorf("epoch %d: elapsed went backwards", s.Epoch)
		}
	}
	last := stats[len(stats)-1]
	if last.Best != r.Objective {
		t.Errorf("final Best = %v, want solver objective %v", last.Best, r.Objective)
	}
}

func TestOnEpochBestMonotoneOnConvexToy(t *testing.T) {
	var stats []EpochStats
	opts := Options{Iterations: 2000, OnEpoch: func(s EpochStats) { stats = append(stats, s) }}
	Minimize(convexToy(), opts)

	if len(stats) < 2 {
		t.Fatalf("too few epochs: %d", len(stats))
	}
	for i := 1; i < len(stats); i++ {
		if stats[i].Best > stats[i-1].Best {
			t.Fatalf("best objective increased at epoch %d: %v -> %v",
				stats[i].Epoch, stats[i-1].Best, stats[i].Best)
		}
	}
	if first, last := stats[0].Best, stats[len(stats)-1].Best; last >= first {
		t.Errorf("no convergence progress: first best %v, final best %v", first, last)
	}
	// The early epochs move x, so step sizes must be visible.
	if stats[0].StepSize == 0 {
		t.Errorf("first epoch step size = 0, expected movement")
	}
}

func TestOnEpochFiresForAllMethods(t *testing.T) {
	for _, m := range []Method{Adam, SGD, AdaGrad} {
		n := 0
		opts := Options{Iterations: 50, OnEpoch: func(EpochStats) { n++ }}
		r := MinimizeWith(convexToy(), opts, m, learnRate)
		if n != r.Iterations || n == 0 {
			t.Errorf("%v: hook fired %d times over %d epochs", m, n, r.Iterations)
		}
	}
}

func TestOnEpochDoesNotPerturbSolution(t *testing.T) {
	base := Minimize(convexToy(), Options{Iterations: 300})
	hooked := Minimize(convexToy(), Options{Iterations: 300, OnEpoch: func(EpochStats) {}})
	if base.Objective != hooked.Objective || base.Iterations != hooked.Iterations {
		t.Fatalf("telemetry changed the solve: %+v vs %+v", base, hooked)
	}
	for i := range base.X {
		if base.X[i] != hooked.X[i] {
			t.Fatalf("x[%d] differs: %v vs %v", i, base.X[i], hooked.X[i])
		}
	}
}
