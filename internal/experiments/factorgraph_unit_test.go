package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddFactorValidation(t *testing.T) {
	g := &Graph{NumVars: 2}
	if err := g.AddFactor(Factor{Vars: []int{0}, Table: []float64{1, 2, 3}}); err == nil {
		t.Error("wrong table size accepted")
	}
	if err := g.AddFactor(Factor{Vars: []int{5}, Table: []float64{1, 2}}); err == nil {
		t.Error("out-of-range variable accepted")
	}
	if err := g.AddFactor(UnaryFactor(0, 0.3, 0.7)); err != nil {
		t.Errorf("valid factor rejected: %v", err)
	}
}

func TestScore(t *testing.T) {
	g := &Graph{NumVars: 2}
	_ = g.AddFactor(UnaryFactor(0, 0.2, 0.8))
	_ = g.AddFactor(Factor{Vars: []int{0, 1}, Table: []float64{1, 2, 3, 4}})
	// x = (1, 0): unary 0.8, pair index 0b01 = 2.
	got := g.Score([]bool{true, false})
	if math.Abs(got-0.8*2) > 1e-12 {
		t.Errorf("score = %v, want 1.6", got)
	}
}

func TestBPUnaryOnly(t *testing.T) {
	g := &Graph{NumVars: 1}
	_ = g.AddFactor(UnaryFactor(0, 0.25, 0.75))
	r := g.BeliefPropagation(BPOptions{})
	if math.Abs(r.Marginals[0]-0.75) > 1e-6 {
		t.Errorf("marginal = %v, want 0.75", r.Marginals[0])
	}
	if !r.Converged {
		t.Error("unary graph must converge")
	}
}

// On tree-structured graphs BP is exact: compare with enumeration.
func TestBPExactOnTree(t *testing.T) {
	g := &Graph{NumVars: 3}
	_ = g.AddFactor(UnaryFactor(0, 0.4, 0.6))
	_ = g.AddFactor(Factor{Vars: []int{0, 1}, Table: []float64{0.9, 0.2, 0.3, 0.8}})
	_ = g.AddFactor(Factor{Vars: []int{1, 2}, Table: []float64{0.7, 0.1, 0.4, 0.9}})
	want, err := g.ExactMarginals()
	if err != nil {
		t.Fatal(err)
	}
	r := g.BeliefPropagation(BPOptions{MaxIterations: 300})
	for v := range want {
		if math.Abs(r.Marginals[v]-want[v]) > 1e-3 {
			t.Errorf("marginal[%d] = %v, want %v", v, r.Marginals[v], want[v])
		}
	}
}

func TestBPHardEvidencePropagates(t *testing.T) {
	// x0 pinned to 1; pair factor strongly correlates x1 with x0.
	g := &Graph{NumVars: 2}
	_ = g.AddFactor(UnaryFactor(0, 0, 1))
	_ = g.AddFactor(Factor{Vars: []int{0, 1}, Table: []float64{0.9, 0.1, 0.1, 0.9}})
	r := g.BeliefPropagation(BPOptions{})
	if r.Marginals[0] < 0.999 {
		t.Errorf("pinned marginal = %v", r.Marginals[0])
	}
	if r.Marginals[1] < 0.85 {
		t.Errorf("correlated marginal = %v, want ~0.9", r.Marginals[1])
	}
}

func TestGibbsMatchesExactOnSmallGraph(t *testing.T) {
	g := &Graph{NumVars: 3}
	_ = g.AddFactor(UnaryFactor(0, 0.3, 0.7))
	_ = g.AddFactor(Factor{Vars: []int{0, 1}, Table: []float64{0.8, 0.3, 0.3, 0.8}})
	_ = g.AddFactor(Factor{Vars: []int{1, 2}, Table: []float64{0.6, 0.4, 0.4, 0.6}})
	want, err := g.ExactMarginals()
	if err != nil {
		t.Fatal(err)
	}
	got := g.Gibbs(GibbsOptions{Burn: 200, Samples: 4000}, rand.New(rand.NewSource(7)))
	for v := range want {
		if math.Abs(got[v]-want[v]) > 0.05 {
			t.Errorf("gibbs[%d] = %v, want %v ± 0.05", v, got[v], want[v])
		}
	}
}

func TestGibbsDeterministicGivenSeed(t *testing.T) {
	g := &Graph{NumVars: 2}
	_ = g.AddFactor(Factor{Vars: []int{0, 1}, Table: []float64{0.9, 0.2, 0.2, 0.9}})
	a := g.Gibbs(GibbsOptions{Burn: 10, Samples: 50}, rand.New(rand.NewSource(1)))
	b := g.Gibbs(GibbsOptions{Burn: 10, Samples: 50}, rand.New(rand.NewSource(1)))
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("gibbs not reproducible with fixed seed")
		}
	}
}

func TestExactMarginalsRejectsLargeGraphs(t *testing.T) {
	g := &Graph{NumVars: 25}
	if _, err := g.ExactMarginals(); err == nil {
		t.Error("expected size error")
	}
}

// Property: BP marginals are always valid probabilities, and pinned
// variables keep their pinned value, on random pairwise graphs.
func TestBPMarginalsValidProperty(t *testing.T) {
	f := func(pairs []uint8, pin bool) bool {
		n := 5
		g := &Graph{NumVars: n}
		if pin {
			_ = g.AddFactor(UnaryFactor(0, 0, 1))
		}
		for i := 0; i+2 < len(pairs); i += 3 {
			a, b := int(pairs[i])%n, int(pairs[i+1])%n
			if a == b {
				continue
			}
			w := 0.1 + float64(pairs[i+2]%8)/10
			_ = g.AddFactor(Factor{Vars: []int{a, b},
				Table: []float64{w, 1 - w, 1 - w, w}})
		}
		r := g.BeliefPropagation(BPOptions{MaxIterations: 50})
		for v, m := range r.Marginals {
			if m < -1e-9 || m > 1+1e-9 || math.IsNaN(m) {
				return false
			}
			if pin && v == 0 && m < 0.99 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestThreeVariableImplicationFactor(t *testing.T) {
	// The Merlin Fig. 6a shape: if x0 (source) and x2 (sink) then x1
	// (sanitizer). Pin x0 and x2; x1's marginal must rise above 0.5.
	table := make([]float64, 8)
	for idx := range table {
		x0 := idx&1 == 1
		x1 := idx&2 == 2
		x2 := idx&4 == 4
		if x0 && x2 && !x1 {
			table[idx] = 0.1
		} else {
			table[idx] = 0.9
		}
	}
	g := &Graph{NumVars: 3}
	_ = g.AddFactor(UnaryFactor(0, 0, 1))
	_ = g.AddFactor(UnaryFactor(2, 0, 1))
	_ = g.AddFactor(Factor{Vars: []int{0, 1, 2}, Table: table})
	r := g.BeliefPropagation(BPOptions{})
	if r.Marginals[1] < 0.8 {
		t.Errorf("sanitizer marginal = %v, want >= 0.8", r.Marginals[1])
	}
}

// ExactMarginals computes marginals by brute-force enumeration; usable
// only for small graphs (≤ 20 variables) and used in tests as ground truth.
func (g *Graph) ExactMarginals() ([]float64, error) {
	if g.NumVars > 20 {
		return nil, fmt.Errorf("factorgraph: %d variables too many for exact inference", g.NumVars)
	}
	marg := make([]float64, g.NumVars)
	z := 0.0
	x := make([]bool, g.NumVars)
	for a := 0; a < 1<<g.NumVars; a++ {
		for v := range x {
			x[v] = (a>>v)&1 == 1
		}
		p := g.Score(x)
		z += p
		for v := range x {
			if x[v] {
				marg[v] += p
			}
		}
	}
	if z == 0 {
		return nil, fmt.Errorf("factorgraph: partition function is zero")
	}
	for v := range marg {
		marg[v] /= z
	}
	return marg, nil
}
