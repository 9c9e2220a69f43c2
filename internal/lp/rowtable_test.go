package lp

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// cutBlocks cuts p's constraints into consecutive segments of 1–60 and
// keys each by a hash of its flattened content, the way a block's
// fingerprint vouches for its constraints: equal keys, equal runs.
func cutBlocks(p *Problem, rng *rand.Rand) []Block {
	var blocks []Block
	for at := 0; at < len(p.Constraints); {
		n := min(1+rng.Intn(60), len(p.Constraints)-at)
		h := sha256.New()
		for i := at; i < at+n; i++ {
			fmt.Fprintf(h, "%s|", flatRow(&p.Constraints[i]))
		}
		var key [32]byte
		h.Sum(key[:0])
		blocks = append(blocks, Block{Key: key, N: n})
		at += n
	}
	return blocks
}

// withBlocks is a shallow copy of p that says where its constraints came
// from; stripped of them it is what a solve without a table sees.
func withBlocks(p *Problem, blocks []Block) *Problem {
	q := *p
	q.Blocks, q.mask = blocks, nil
	return &q
}

// assertTableHoldsProblem checks the kernel the table last compiled
// against the problem: every constraint maps to a row holding exactly its
// flattened terms, live rows are the distinct flattened constraints, every
// parent is numbered below its child, and the nodes no live row runs
// through are the dead ones, each still in the child table.
func assertTableHoldsProblem(t *testing.T, label string, tab *RowTable, p *Problem) {
	t.Helper()
	k := &tab.k
	if len(k.rowOf) != len(p.Constraints) {
		t.Fatalf("%s: rowOf has %d entries for %d constraints", label, len(k.rowOf), len(p.Constraints))
	}
	distinct := map[string]bool{}
	for i := range p.Constraints {
		c := &p.Constraints[i]
		r := k.rowOf[i]
		if row := rowTerms(k.nodes, r); flatRow(&row) != flatRow(c) {
			t.Fatalf("%s: constraint %d maps to row %d holding %s, want %s", label, i, r, flatRow(&row), flatRow(c))
		}
		distinct[flatRow(c)] = true
	}
	onPath := make([]bool, len(k.nodes))
	for _, r := range k.order {
		for i := r; i != 0; i = k.nodes[i].par {
			onPath[i] = true
		}
	}
	live := 0
	for i := 1; i < len(k.nodes); i++ {
		nd := k.nodes[i]
		if nd.par < 0 || int(nd.par) >= i {
			t.Fatalf("%s: node %d has parent %d", label, i, nd.par)
		}
		if got := tab.child(nd.par, int(nd.v), nd.coef); got != int32(i) || len(tab.nodes) != len(k.nodes) {
			t.Fatalf("%s: node %d is found as %d in the child table", label, i, got)
		}
		if onPath[i] {
			live++
		}
	}
	if len(k.order) != len(distinct) || live+k.dead != len(k.nodes)-1 {
		t.Fatalf("%s: %d live rows over %d live + %d dead of %d nodes, want %d live rows",
			label, len(k.order), live, k.dead, len(k.nodes)-1, len(distinct))
	}
}

func negated(ts []Term) []Term {
	out := make([]Term, len(ts))
	for i, t := range ts {
		out[i] = Term{Var: t.Var, Coef: -t.Coef}
	}
	return out
}

// assertSameSolve solves p through the standing table and, stripped of
// its blocks, through a fresh one, and requires the same bits.
func assertSameSolve(t *testing.T, label string, tab *RowTable, p *Problem, opts Options) *Result {
	t.Helper()
	opts.Rows = tab
	got := Minimize(p, opts)
	opts.Rows = nil
	want := Minimize(withBlocks(p, nil), opts)
	if got.Iterations != want.Iterations || got.Rows != want.Rows ||
		math.Float64bits(got.Objective) != math.Float64bits(want.Objective) ||
		math.Float64bits(got.Violation) != math.Float64bits(want.Violation) {
		t.Fatalf("%s: through the table %d epochs, %d rows, objective %v, violation %v; fresh %d, %d, %v, %v", label,
			got.Iterations, got.Rows, got.Objective, got.Violation, want.Iterations, want.Rows, want.Objective, want.Violation)
	}
	for i := range want.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			t.Fatalf("%s: x[%d] = %v through the table, %v fresh", label, i, got.X[i], want.X[i])
		}
	}
	assertTableHoldsProblem(t, label, tab, p)
	return got
}

// TestRowTableMatchesFreshCompile drives one standing table through the
// life of a session over every kernel shape — the same problem again, a
// pin added and removed, segments replaced a few at a time until the dead
// rows force a recompile, variables renumbered, variables dropped — and
// at every step requires the solve to be bit-identical to one compiled
// from nothing, warm-started or not.
func TestRowTableMatchesFreshCompile(t *testing.T) {
	for name, base := range kernelProblems() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			tab := NewRowTable()
			opts := Options{Iterations: 40}
			p := withBlocks(base, cutBlocks(base, rng))

			first := assertSameSolve(t, "first", tab, p, opts)
			if first.RowsReused != 0 || first.RowsDead != 0 {
				t.Fatalf("first compile reused %d constraints and left %d rows dead", first.RowsReused, first.RowsDead)
			}
			opts.WarmStart, opts.Patience = first.X, 25
			again := assertSameSolve(t, "again", tab, p, opts)
			if again.RowsReused != len(p.Constraints) || again.RowsDead != 0 {
				t.Fatalf("unchanged problem: %d of %d constraints reused, %d rows dead", again.RowsReused, len(p.Constraints), again.RowsDead)
			}

			// A pin and its removal change the free lists, not the rows.
			pinned := withBlocks(p, p.Blocks)
			pinned.Known = map[int]float64{}
			for v, val := range p.Known {
				pinned.Known[v] = val
			}
			free := 0
			for pinned.Known[free] != 0 || p.Known[free] != 0 {
				free++
			}
			pinned.Pin(free, 1)
			if res := assertSameSolve(t, "pinned", tab, pinned, opts); res.RowsReused != len(p.Constraints) {
				t.Fatalf("pinned: %d of %d constraints reused", res.RowsReused, len(p.Constraints))
			}
			assertSameSolve(t, "unpinned", tab, p, opts)

			// Churn: every round replaces a twentieth of the segments by new
			// constraints. Their nodes go dead a few at a time, until a compile
			// empties the table instead of carrying them.
			nodes := func() int { return len(tab.k.nodes) - 1 }
			recompiles, size := 0, nodes()
			cur := p
			for round := 0; round < 24; round++ {
				next := &Problem{NumVars: cur.NumVars, C: cur.C, Lambda: cur.Lambda, Known: cur.Known}
				at := 0
				for _, b := range cur.Blocks {
					seg := cur.Constraints[at : at+b.N]
					at += b.N
					if rng.Intn(20) == 0 {
						seg = make([]Constraint, 1+rng.Intn(40))
						for i := range seg {
							seg[i] = Constraint{LHS: randTerms(rng, 1+rng.Intn(2), cur.NumVars), RHS: randTerms(rng, rng.Intn(3), cur.NumVars)}
						}
					}
					next.Constraints = append(next.Constraints, seg...)
				}
				next.Blocks = cutBlocks(next, rand.New(rand.NewSource(int64(round))))
				cur = next
				res := assertSameSolve(t, fmt.Sprintf("churn %d", round), tab, cur, opts)
				if nodes() < size && res.RowsDead == 0 && res.RowsReused == 0 {
					recompiles++
				}
				if tab.k.dead*deadRowShare > nodes() {
					t.Fatalf("churn %d: %d of %d nodes dead, over the share", round, tab.k.dead, nodes())
				}
				size = nodes()
			}
			if recompiles == 0 {
				t.Fatalf("24 rounds of churn never emptied the table (%d nodes, %d dead)", nodes(), tab.k.dead)
			}

			// Renumbered variables: same shape, every term elsewhere. Content
			// keys differ, so nothing may be taken from memory.
			perm := rng.Perm(cur.NumVars)
			renum := &Problem{NumVars: cur.NumVars, C: cur.C, Lambda: cur.Lambda, Known: map[int]float64{}}
			for v, val := range cur.Known {
				renum.Known[perm[v]] = val
			}
			for _, c := range cur.Constraints {
				renum.Constraints = append(renum.Constraints, Constraint{LHS: mapVars(c.LHS, perm), RHS: mapVars(c.RHS, perm)})
			}
			renum.Blocks = cutBlocks(renum, rng)
			opts.WarmStart = nil
			assertSameSolve(t, "renumbered", tab, renum, opts)

			// One variable fewer, and only the constraints that mention it gone:
			// nearly every row is still live, so it is not the dead nodes that
			// empty the table, and the dead ones mention a variable the
			// iterate no longer has — the table may not evaluate them.
			top := cur.NumVars - 1
			fewer := &Problem{NumVars: top, C: cur.C, Lambda: cur.Lambda, Known: map[int]float64{0: 1}}
			mentions := func(ts []Term) bool {
				for _, t := range ts {
					if t.Var == top {
						return true
					}
				}
				return false
			}
			for _, c := range cur.Constraints {
				if !mentions(c.LHS) && !mentions(c.RHS) {
					fewer.Constraints = append(fewer.Constraints, c)
				}
			}
			if n, all := len(fewer.Constraints), len(cur.Constraints); n == all || (all-n)*deadRowShare > all {
				t.Fatalf("fixture: %d of %d constraints mention the last variable", all-n, all)
			}
			fewer.Blocks = cutBlocks(fewer, rng)
			assertSameSolve(t, "before fewer variables", tab, cur, opts)
			if res := assertSameSolve(t, "fewer variables", tab, fewer, opts); res.RowsDead != 0 {
				t.Fatalf("fewer variables: %d dead nodes survived", res.RowsDead)
			}
			// A key that comes back with a run of another length vouches for
			// nothing.
			if b := fewer.Blocks; len(b) >= 2 && b[0].N != b[1].N {
				b[0].Key, b[1].Key = b[1].Key, b[0].Key
				res := assertSameSolve(t, "keys swapped", tab, fewer, opts)
				if want := len(fewer.Constraints) - b[0].N - b[1].N; res.RowsReused != want {
					t.Fatalf("keys swapped: %d constraints reused, want %d", res.RowsReused, want)
				}
			}
			// Blocks that do not add up are no blocks.
			fewer.Blocks = fewer.Blocks[1:]
			if res := assertSameSolve(t, "bad blocks", tab, fewer, opts); res.RowsReused != 0 {
				t.Fatalf("bad blocks: %d constraints reused", res.RowsReused)
			}
		})
	}
}

func mapVars(ts []Term, to []int) []Term {
	if ts == nil {
		return nil
	}
	out := make([]Term, len(ts))
	for i, t := range ts {
		out[i] = Term{Var: to[t.Var], Coef: t.Coef}
	}
	return out
}
