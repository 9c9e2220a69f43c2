package lp

import "testing"

// warmFixture builds a small problem with a non-trivial optimum: a
// pinned seed variable at the head of a two-hop implication chain, with
// enough L1 pressure that the free variables settle at hinge kinks
// rather than saturating.
func warmFixture() *Problem {
	return &Problem{
		NumVars: 3,
		C:       0.25,
		Lambda:  0.1,
		Known:   map[int]float64{0: 1},
		Constraints: []Constraint{
			{LHS: []Term{{Var: 0, Coef: 1}}, RHS: []Term{{Var: 1, Coef: 1}}},
			{LHS: []Term{{Var: 1, Coef: 1}}, RHS: []Term{{Var: 2, Coef: 1}}},
		},
	}
}

// TestWarmStartClampsAndRepins: out-of-box warm values are clamped and
// pinned variables keep their pinned values no matter what the warm
// vector carries.
func TestWarmStartClampsAndRepins(t *testing.T) {
	p := warmFixture()
	res := Minimize(p, Options{
		Iterations: 1,
		WarmStart:  []float64{0.123, 7, -5}, // var 0 is pinned to 1
	})
	if res.X[0] != 1 {
		t.Errorf("pinned variable overridden by warm start: x[0] = %g", res.X[0])
	}
	for i, v := range res.X {
		if v < 0 || v > 1 {
			t.Errorf("x[%d] = %g escaped the box", i, v)
		}
	}
}

// TestWarmStartWrongLengthIgnored: a vector whose length does not match
// NumVars must fall back to the cold start point bit-for-bit.
func TestWarmStartWrongLengthIgnored(t *testing.T) {
	p := warmFixture()
	cold := Minimize(p, Options{})
	odd := Minimize(p, Options{WarmStart: []float64{0.3, 0.3}})
	for i := range cold.X {
		if cold.X[i] != odd.X[i] {
			t.Fatalf("wrong-length warm start changed the solve: x[%d] %g vs %g", i, odd.X[i], cold.X[i])
		}
	}
	if odd.Iterations != cold.Iterations {
		t.Fatalf("wrong-length warm start changed epoch count: %d vs %d", odd.Iterations, cold.Iterations)
	}
}

// TestWarmStartOtherOptimizers: MinimizeWith honors WarmStart for the
// ablation methods too.
func TestWarmStartOtherOptimizers(t *testing.T) {
	p := warmFixture()
	for _, m := range []Method{SGD, AdaGrad} {
		cold := MinimizeWith(p, Options{}, m, learnRate)
		warm := MinimizeWith(p, Options{WarmStart: cold.X}, m, learnRate)
		if warm.Objective > cold.Objective+1e-6 {
			t.Errorf("%v: warm objective %g worse than cold %g", m, warm.Objective, cold.Objective)
		}
	}
}

// TestPinInvalidatesMask: mutating a pin through Problem.Pin must be
// visible to the next solve even when the pin count is unchanged (the
// compiled mask caches by count).
func TestPinInvalidatesMask(t *testing.T) {
	p := warmFixture()
	_ = Minimize(p, Options{}) // builds and caches the mask
	p.Pin(0, 0)                // same count, different value
	res := Minimize(p, Options{})
	if res.X[0] != 0 {
		t.Fatalf("re-pinned value not applied: x[0] = %g", res.X[0])
	}
	p.Pin(1, 1) // brand-new pin
	res = Minimize(p, Options{})
	if res.X[1] != 1 {
		t.Fatalf("new pin not applied: x[1] = %g", res.X[1])
	}
}

// TestWarmStartMatchesReference holds the warm re-solve — previous
// solution in, plateau stop on — to the same oracle as the cold one, on
// every kernel shape including the two with folded rows: same epoch count
// and bit-identical iterate as the interpreted loop, at two shard counts.
func TestWarmStartMatchesReference(t *testing.T) {
	for name, p := range kernelProblems() {
		t.Run(name, func(t *testing.T) {
			cold := Minimize(p, Options{Iterations: 100})
			opts := Options{Iterations: 100, WarmStart: cold.X, Patience: 25}
			ref := minimizeReference(p, opts)
			for _, shards := range []int{1, 3} {
				opts.shards = shards
				warm := Minimize(p, opts)
				if warm.Iterations != ref.Iterations {
					t.Fatalf("shards=%d: warm solve ran %d epochs, reference %d", shards, warm.Iterations, ref.Iterations)
				}
				for i := range ref.X {
					if warm.X[i] != ref.X[i] {
						t.Fatalf("shards=%d: x[%d] = %v, reference %v", shards, i, warm.X[i], ref.X[i])
					}
				}
				if warm.Objective > cold.Objective+1e-9 {
					t.Errorf("shards=%d: warm objective %g worse than the cold one it started from (%g)",
						shards, warm.Objective, cold.Objective)
				}
			}
		})
	}
}

// TestDefaultWindowIsTheWarmWindow: a zero Patience selects the 25-epoch
// window that callers replaying a warm solve spell out (the benchmark
// harness does), so the two solves agree bit for bit, cold and warm. If the
// default moves, the spelled 25 has to move with it.
func TestDefaultWindowIsTheWarmWindow(t *testing.T) {
	for name, p := range kernelProblems() {
		t.Run(name, func(t *testing.T) {
			cold := Minimize(p, Options{})
			sameBits(t, "cold", Minimize(p, Options{Patience: 25}), cold)
			sameBits(t, "warm", Minimize(p, Options{WarmStart: cold.X, Patience: 25}), Minimize(p, Options{WarmStart: cold.X}))
		})
	}
}
