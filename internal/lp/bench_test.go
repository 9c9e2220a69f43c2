package lp

import (
	"fmt"
	"testing"
)

// randomishProblem builds a deterministic mid-size constraint system with
// the structure the Seldon pipeline produces (two LHS terms, a handful of
// RHS terms, some pinned variables).
func randomishProblem(nVars, nCons int) *Problem {
	p := &Problem{NumVars: nVars, C: 0.75, Lambda: 0.1, Known: map[int]float64{}}
	for i := 0; i < nVars/10; i++ {
		p.Known[i*7%nVars] = float64(i % 2)
	}
	for i := 0; i < nCons; i++ {
		a := (i * 13) % nVars
		bb := (i*29 + 7) % nVars
		c := (i*31 + 3) % nVars
		d := (i*37 + 11) % nVars
		p.Constraints = append(p.Constraints, Constraint{
			LHS: []Term{{a, 1}, {bb, 1}},
			RHS: []Term{{c, 0.5}, {d, 0.5}},
		})
	}
	return p
}

func BenchmarkMinimizeSmall(b *testing.B) {
	p := randomishProblem(200, 1000)
	for i := 0; i < b.N; i++ {
		Minimize(p, Options{Iterations: 100})
	}
}

func BenchmarkMinimizeLarge(b *testing.B) {
	p := randomishProblem(5000, 50000)
	for i := 0; i < b.N; i++ {
		Minimize(p, Options{Iterations: 100})
	}
}

// BenchmarkMinimizeSeedBaseline is the interpreted solver on the large
// problem; compare against BenchmarkMinimizeKernel/distinct/shards=1 for
// the fused kernel's per-epoch win and higher shard counts for the parallel
// win.
func BenchmarkMinimizeSeedBaseline(b *testing.B) {
	p := randomishProblem(5000, 50000)
	for i := 0; i < b.N; i++ {
		minimizeReference(p, Options{Iterations: 100})
	}
}

// BenchmarkMinimizeKernel times the kernel on two shapes: "distinct",
// 50 000 constraints that are 5000 rows repeated as whole blocks, over 100
// epochs, and "learned", the shape of the system a 6000-file corpus yields
// and the solve it gets — 786 variables a third of them pinned, 38 766
// distinct rows of two to six terms, each repeated 5× on average and
// shuffled (≈ 194 000 constraints), C lowered until about a sixth of the
// constraints end up violated as they do there, 400 epochs.
// ns/constraint-epoch is comparable with the harness's
// lp.ns_per_constraint_epoch; active_rows/active_constraints is what is
// left of the reduction at the solution once it is folded (1 means all).
func BenchmarkMinimizeKernel(b *testing.B) {
	learned := dupHeavy(786, 262, 38766)
	learned.C = 0.2
	shapes := []struct {
		name   string
		p      *Problem
		epochs int
	}{
		{"distinct", randomishProblem(5000, 50000), 100},
		{"learned", learned, 400},
	}
	for _, shape := range shapes {
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/shards=%d", shape.name, shards), func(b *testing.B) {
				var res *Result
				for i := 0; i < b.N; i++ {
					res = Minimize(shape.p, Options{Iterations: shape.epochs, shards: shards})
				}
				b.StopTimer()
				evals := b.N * res.Iterations * len(shape.p.Constraints)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(evals), "ns/constraint-epoch")
				k := compile(shape.p, nil)
				k.pass(res.X, 1)
				b.ReportMetric(float64(k.nActive)/float64(k.violated), "active_rows/active_constraints")
			})
		}
	}
}

// BenchmarkObjective isolates the satellite fix: the free-mask fold vs
// the seed's per-variable map lookup.
func BenchmarkObjective(b *testing.B) {
	p := randomishProblem(5000, 50000)
	x := make([]float64, p.NumVars)
	for i := range x {
		x[i] = float64(i%7) / 7
	}
	p.masks() // build the cache outside the timed loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = p.Objective(x)
	}
}

var sink float64
