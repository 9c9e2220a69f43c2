package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// kernelProblems are the shapes the equivalence and determinism tests run
// over: tiny, large (6161 distinct rows), unpinned, and the two built to
// exercise row folding. randomishProblem only ever repeats a row as a
// whole block (constraint i equals constraint i+nVars), with two
// coefficients and no near misses, so on its own it says little about the
// row table.
func kernelProblems() map[string]*Problem {
	return map[string]*Problem{
		"small":      randomishProblem(60, 300),
		"multichunk": randomishProblem(3*2048+17, 4*2048),
		"nopin": {
			NumVars: 50, C: 0.75, Lambda: 0.1, Known: map[int]float64{},
			Constraints: randomishProblem(50, 200).Constraints,
		},
		"dupheavy": dupHeavyProblem(),
		"neardup":  nearDupProblem(),
	}
}

// backoffCoefs are the coefficients averaged backoff representations
// produce; ⅓ makes repeated gradient sums inexact, so a scatter in any
// order but the canonical one, or one that adds a row's copies one by one
// instead of once times their number, would show.
var backoffCoefs = []float64{1, 1.0 / 2, 1.0 / 3}

// randTerms draws n terms over the first nVars variables.
func randTerms(rng *rand.Rand, n, nVars int) []Term {
	ts := make([]Term, n)
	for i := range ts {
		ts[i] = Term{Var: rng.Intn(nVars), Coef: backoffCoefs[rng.Intn(len(backoffCoefs))]}
	}
	return ts
}

// dupHeavyProblem has the duplication a learned system has: 2600 distinct
// rows, each repeated 1–9× and the copies shuffled apart, coefficients
// from {1, ½, ⅓}, a third of the variables pinned (so about a third of all
// terms sit on pinned variables) and forty rows over pinned variables
// only.
func dupHeavyProblem() *Problem { return dupHeavy(120, 40, 2600) }

// dupHeavy draws nRows rows over nVars variables, the first nPinned of
// them pinned, every 65th row over pinned variables only, and repeats each
// 1–9× (5× on average), shuffled.
func dupHeavy(nVars, nPinned, nRows int) *Problem {
	p := &Problem{NumVars: nVars, C: 0.75, Lambda: 0.1, Known: map[int]float64{}}
	for v := 0; v < nPinned; v++ {
		p.Known[v] = float64(v % 2)
	}
	rng := rand.New(rand.NewSource(1))
	var cons []Constraint
	for r := 0; r < nRows; r++ {
		span := nVars
		if r%65 == 0 {
			span = nPinned // all-pinned row
		}
		row := Constraint{LHS: randTerms(rng, 1+rng.Intn(2), span), RHS: randTerms(rng, 1+rng.Intn(4), span)}
		for n := 1 + rng.Intn(9); n > 0; n-- {
			// Each copy owns its term slices, as pipeline-built constraints do.
			cons = append(cons, Constraint{
				LHS: append([]Term(nil), row.LHS...),
				RHS: append([]Term(nil), row.RHS...),
			})
		}
	}
	rng.Shuffle(len(cons), func(i, j int) { cons[i], cons[j] = cons[j], cons[i] })
	p.Constraints = cons
	return p
}

// nearDupProblem is rows that look alike but must not merge: every base
// row comes with an exact copy (which must merge) and three variants —
// last coefficient changed, one variable changed, LHS and RHS swapped —
// laid out so that a row and its variants are far apart.
func nearDupProblem() *Problem {
	const nVars, nBase = 80, 300
	p := &Problem{NumVars: nVars, C: 0.75, Lambda: 0.1, Known: map[int]float64{}}
	for v := 0; v < 16; v++ {
		p.Known[v*5] = float64(v % 2)
	}
	rng := rand.New(rand.NewSource(2))
	base := make([]Constraint, nBase)
	for i := range base {
		base[i] = Constraint{LHS: randTerms(rng, 1+rng.Intn(2), nVars), RHS: randTerms(rng, 1+rng.Intn(3), nVars)}
	}
	variants := []func(Constraint) Constraint{
		func(c Constraint) Constraint { return c },
		func(c Constraint) Constraint { return c },
		func(c Constraint) Constraint { // last coefficient
			rhs := append([]Term(nil), c.RHS...)
			rhs[len(rhs)-1].Coef = 1.5 - rhs[len(rhs)-1].Coef
			return Constraint{LHS: c.LHS, RHS: rhs}
		},
		func(c Constraint) Constraint { // one variable
			lhs := append([]Term(nil), c.LHS...)
			lhs[0].Var = (lhs[0].Var + 1) % nVars
			return Constraint{LHS: lhs, RHS: c.RHS}
		},
		func(c Constraint) Constraint { return Constraint{LHS: c.RHS, RHS: c.LHS} },
	}
	for _, variant := range variants {
		for _, c := range base {
			p.Constraints = append(p.Constraints, variant(c))
		}
	}
	return p
}

// flatRow renders a constraint the way compile flattens it (RHS negated),
// coefficients by bit pattern: the independent notion of "same row".
func flatRow(c *Constraint) string {
	var b strings.Builder
	for _, t := range c.LHS {
		fmt.Fprintf(&b, "%d:%x ", t.Var, math.Float64bits(t.Coef))
	}
	for _, t := range c.RHS {
		fmt.Fprintf(&b, "%d:%x ", t.Var, math.Float64bits(-t.Coef))
	}
	return b.String()
}

// rowTerms walks row r of the trie up to the root and returns its terms
// in term order, as one flattened LHS.
func rowTerms(nodes []node, r int32) Constraint {
	var row Constraint
	for i := r; i != 0; i = nodes[i].par {
		row.LHS = append(row.LHS, Term{int(nodes[i].v), nodes[i].coef})
	}
	slices.Reverse(row.LHS)
	return row
}

// assertTrieShape compiles p into a fresh table and checks the trie against
// map-based counts over the encoded term lists: one node per distinct
// non-empty prefix, one row per distinct list, every parent numbered below
// its child, and every constraint's row walking back to its own terms.
func assertTrieShape(t *testing.T, label string, p *Problem) {
	t.Helper()
	k := compile(p, nil)
	prefixes, lists := map[string]bool{}, map[string]bool{}
	for i := range p.Constraints {
		c := &p.Constraints[i]
		prefix := ""
		for _, term := range append(append([]Term(nil), c.LHS...), negated(c.RHS)...) {
			prefix += fmt.Sprintf("%d:%x ", term.Var, math.Float64bits(term.Coef))
			prefixes[prefix] = true
		}
		lists[prefix] = true
	}
	if nodes := len(k.nodes) - 1; nodes != len(prefixes) {
		t.Fatalf("%s: %d nodes for %d distinct non-empty prefixes", label, nodes, len(prefixes))
	}
	if len(k.order) != len(lists) || k.dead != 0 {
		t.Fatalf("%s: %d rows (%d dead nodes) for %d distinct term lists", label, len(k.order), k.dead, len(lists))
	}
	for i := 1; i < len(k.nodes); i++ {
		if par := k.nodes[i].par; par < 0 || int(par) >= i {
			t.Fatalf("%s: node %d has parent %d", label, i, par)
		}
	}
	for i := range p.Constraints {
		row := rowTerms(k.nodes, k.rowOf[i])
		if flatRow(&row) != flatRow(&p.Constraints[i]) {
			t.Fatalf("%s: constraint %d maps to row %d holding %s, want %s", label, i, k.rowOf[i], flatRow(&row), flatRow(&p.Constraints[i]))
		}
	}
}

// TestTrieShape runs the shape oracle over every kernel shape; the fuzz
// target and the corpus-system test run it over theirs.
func TestTrieShape(t *testing.T) {
	for name, p := range kernelProblems() {
		assertTrieShape(t, name, p)
	}
}

// TestCompileFoldsExactDuplicatesOnly checks the row table itself against
// a map-based oracle: as many rows as there are distinct flattened
// constraints (so every exact duplicate merged and no near-duplicate
// did), each constraint mapped to a row holding exactly its terms, and
// the free-term list of each live row equal to that row minus its pinned
// variables.
func TestCompileFoldsExactDuplicatesOnly(t *testing.T) {
	for name, p := range kernelProblems() {
		t.Run(name, func(t *testing.T) {
			k := compile(p, nil)
			distinct := map[string]bool{}
			for i := range p.Constraints {
				distinct[flatRow(&p.Constraints[i])] = true
			}
			if len(k.order) != len(distinct) {
				t.Fatalf("compile kept %d rows for %d constraints, want %d distinct",
					len(k.order), len(p.Constraints), len(distinct))
			}
			for i := range p.Constraints {
				if row := rowTerms(k.nodes, k.rowOf[i]); flatRow(&row) != flatRow(&p.Constraints[i]) {
					t.Fatalf("constraint %d mapped to row %d with different terms", i, k.rowOf[i])
				}
			}
			for j, r := range k.order {
				var freeRow, gotFree Constraint
				for _, term := range rowTerms(k.nodes, r).LHS {
					if _, pinned := p.Known[term.Var]; !pinned {
						freeRow.LHS = append(freeRow.LHS, term)
					}
				}
				for i := k.freeStart[j]; i < k.freeStart[j+1]; i++ {
					gotFree.LHS = append(gotFree.LHS, Term{int(k.freeVar[i]), k.freeCoef[i]})
				}
				if flatRow(&gotFree) != flatRow(&freeRow) {
					t.Fatalf("row %d: free terms %v, want %v", r, gotFree.LHS, freeRow.LHS)
				}
			}
		})
	}
}

// TestFoldingShapesAreWhatTheyClaim keeps the two folding fixtures honest:
// if an edit to the builders lost the duplication, the pinned share or the
// all-pinned rows, the oracles above would silently stop covering them.
func TestFoldingShapesAreWhatTheyClaim(t *testing.T) {
	p := dupHeavyProblem()
	k := compile(p, nil)
	rows := len(k.order)
	if ratio := float64(len(p.Constraints)) / float64(rows); ratio < 4 || rows <= 2048 {
		t.Errorf("dupheavy: %d constraints over %d rows (%.1f×), want ≥4× and more than 2048 rows",
			len(p.Constraints), rows, ratio)
	}
	terms := 0
	for _, r := range k.order {
		terms += len(rowTerms(k.nodes, r).LHS)
	}
	if pinned := terms - len(k.freeVar); 4*pinned < terms {
		t.Errorf("dupheavy: %d of %d terms on pinned variables, want ≥ 25%%", pinned, terms)
	}
	allPinned := 0
	for j := range k.order {
		if k.freeStart[j] == k.freeStart[j+1] {
			allPinned++
		}
	}
	if allPinned < 10 {
		t.Errorf("dupheavy: %d all-pinned rows, want ≥ 10", allPinned)
	}
	if res := Minimize(p, Options{Iterations: 5}); res.Rows != rows {
		t.Errorf("Result.Rows = %d, want %d", res.Rows, rows)
	}

	q := nearDupProblem()
	if rows, n := len(compile(q, nil).order), len(q.Constraints); rows < 4*n/5-8 || rows > 4*n/5 {
		t.Errorf("neardup: %d rows for %d constraints, want the 1-in-5 exact copies folded and nothing else", rows, n)
	}
}

// TestMinimizeDeterministicAcrossShards: the solve of a problem whose
// constraints arrive as the keyed blocks of k shards is bit-for-bit the
// fresh solve, through a standing table that first saw those blocks with
// the shards in reverse order — so that the trie numbers their nodes, and
// shares their prefixes, in another order than the problem at hand would.
// Runs under -race in `make verify`.
func TestMinimizeDeterministicAcrossShards(t *testing.T) {
	for name, p := range kernelProblems() {
		t.Run(name, func(t *testing.T) {
			opts := Options{Iterations: 120}
			base := Minimize(p, opts)
			for _, shards := range []int{2, 3, 8, 32} {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					var blocks []Block
					for s := 0; s < shards; s++ {
						lo, hi := s*len(p.Constraints)/shards, (s+1)*len(p.Constraints)/shards
						blocks = append(blocks, Block{Key: [32]byte{byte(s), byte(shards)}, N: hi - lo})
					}
					reversed := withBlocks(p, slices.Clone(blocks))
					reversed.Constraints = nil
					lo := len(p.Constraints)
					for s := shards - 1; s >= 0; s-- {
						hi := lo
						lo -= blocks[s].N
						reversed.Constraints = append(reversed.Constraints, p.Constraints[lo:hi]...)
						reversed.Blocks[shards-1-s] = blocks[s]
					}
					opts.Rows = NewRowTable()
					Minimize(reversed, opts)
					r := Minimize(withBlocks(p, blocks), opts)
					if r.RowsReused != len(p.Constraints) {
						t.Fatalf("%d of %d constraints took their rows from the shards' blocks", r.RowsReused, len(p.Constraints))
					}
					sameBits(t, "shards in order after reverse", r, base)
				})
			}
		})
	}
}

// sameBits fails the test unless got and want are the same result bit for
// bit: epoch count, why it stopped, objective, violation and every
// coordinate.
func sameBits(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Stop != want.Stop {
		t.Fatalf("%s: %d epochs (stop=%v), want %d (stop=%v)", label, got.Iterations, got.Stop, want.Iterations, want.Stop)
	}
	for i := range want.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			t.Fatalf("%s: x[%d] = %v, want %v", label, i, got.X[i], want.X[i])
		}
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Fatalf("%s: objective %v, want %v", label, got.Objective, want.Objective)
	}
	if math.Float64bits(got.Violation) != math.Float64bits(want.Violation) {
		t.Fatalf("%s: violation %v, want %v", label, got.Violation, want.Violation)
	}
}

// TestKernelMatchesReference pins the kernel to the interpreted solver of
// the folded problem: same violations, same multiplicity-weighted sums in
// the same order, so the iterate sequence, the epoch count, the objective
// and the final violation must match to the bit.
func TestKernelMatchesReference(t *testing.T) {
	for name, p := range kernelProblems() {
		t.Run(name, func(t *testing.T) {
			sameBits(t, "kernel", Minimize(p, Options{Iterations: 150}), minimizeReference(p, Options{Iterations: 150}))
		})
	}
}

// TestFoldedReferenceMatchesUnfolded is the evidence that folding the
// reduction changed the rounding and not the mathematics: the interpreted
// solver of the folded problem and the loop that sums every copy on its own
// walk the same descent to within rounding on every shape.
func TestFoldedReferenceMatchesUnfolded(t *testing.T) {
	for name, p := range kernelProblems() {
		t.Run(name, func(t *testing.T) {
			assertWithinRounding(t, minimizeReference(p, Options{Iterations: 150}), minimizeUnfolded(p, Options{Iterations: 150}))
		})
	}
}

// assertWithinRounding requires two solves of one problem to have run the
// same number of epochs and to agree to 1e-9 in every coordinate and 1e-12
// of the objective.
func assertWithinRounding(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Iterations != want.Iterations {
		t.Fatalf("%d epochs against %d", got.Iterations, want.Iterations)
	}
	worst := 0.0
	for i := range want.X {
		worst = math.Max(worst, math.Abs(got.X[i]-want.X[i]))
	}
	if worst > 1e-9 {
		t.Errorf("|Δx|∞ = %g, want ≤ 1e-9", worst)
	}
	d := math.Abs(got.Objective - want.Objective)
	if d > 1e-12*math.Abs(want.Objective) {
		t.Errorf("objective %v against %v, want within 1e-12 of it", got.Objective, want.Objective)
	}
	t.Logf("|Δx|∞ = %g, objectives %g apart at %g", worst, d, want.Objective)
}

// TestKernelTelemetryMatchesReference checks that the re-timed epoch
// bookkeeping still emits one EpochStats per epoch with the same
// convergence story as the reference solver: the
// objective and the best so far to the bit, Active — the violated
// constraints, which the reference counts one by one over the problem as
// written and the kernel as the multiplicities of its active rows —
// exactly, and the quantities the reference re-derives its own way
// (unfolded hinge total, norms) to 1e-9.
func TestKernelTelemetryMatchesReference(t *testing.T) {
	problems := kernelProblems()
	problems["midsize"] = randomishProblem(80, 500)
	for name, p := range problems {
		t.Run(name, func(t *testing.T) {
			collect := func(run func(*Problem, Options) *Result) []EpochStats {
				var out []EpochStats
				run(p, Options{Iterations: 60, OnEpoch: func(s EpochStats) { out = append(out, s) }})
				return out
			}
			assertSameStory(t, collect(Minimize), collect(minimizeReference))
		})
	}
}

func assertSameStory(t *testing.T, ker, ref []EpochStats) {
	t.Helper()
	if len(ker) != len(ref) {
		t.Fatalf("kernel emitted %d epochs, reference %d", len(ker), len(ref))
	}
	for i := range ref {
		if ker[i].Epoch != ref[i].Epoch {
			t.Fatalf("epoch[%d] = %d, want %d", i, ker[i].Epoch, ref[i].Epoch)
		}
		if ker[i].Active != ref[i].Active {
			t.Errorf("epoch %d: kernel's active rows hold %d constraints, reference counts %d violated",
				ref[i].Epoch, ker[i].Active, ref[i].Active)
		}
		if math.Float64bits(ker[i].Objective) != math.Float64bits(ref[i].Objective) ||
			math.Float64bits(ker[i].Best) != math.Float64bits(ref[i].Best) ||
			math.Abs(ker[i].Violation-ref[i].Violation) > 1e-9 ||
			math.Abs(ker[i].GradNorm-ref[i].GradNorm) > 1e-9 ||
			math.Abs(ker[i].StepSize-ref[i].StepSize) > 1e-9 {
			t.Errorf("epoch %d stats diverge: kernel %+v reference %+v",
				ref[i].Epoch, ker[i], ref[i])
		}
	}
}

// TestMinimizeZeroIterationBudget keeps the degenerate path (negative
// budget after withDefaults is bypassed) aligned with the reference.
func TestMinimizeZeroIterationBudget(t *testing.T) {
	p := randomishProblem(40, 100)
	r := minimizeKernel(p, Options{Iterations: -1})
	if r.Iterations != 0 {
		t.Fatalf("iterations = %d, want 0", r.Iterations)
	}
	if got, want := r.Objective, p.Objective(r.X); math.Abs(got-want) > 1e-9 {
		t.Errorf("objective = %v, want %v", got, want)
	}
	for i, v := range r.X {
		if want, ok := p.Known[i]; ok && v != want {
			t.Errorf("x[%d] = %v, want pinned %v", i, v, want)
		}
	}
}

// rearranged returns p with the distinct constraints first occurring in
// the order they do in p — or, when reverse is set, in the opposite order
// — and every later copy moved to a random place behind the first
// occurrence of its row.
func rearranged(p *Problem, rng *rand.Rand, reverse bool) *Problem {
	// A first occurrence is keyed by its rank (negated to reverse), a copy
	// by a draw between its first's key and a bound past every rank.
	sign, past := 1.0, float64(len(p.Constraints))
	if reverse {
		sign = -1
	}
	keys := make([]float64, len(p.Constraints))
	rank := map[string]int{}
	for i := range p.Constraints {
		row := flatRow(&p.Constraints[i])
		r, copied := rank[row]
		if !copied {
			r = len(rank)
			rank[row] = r
		}
		keys[i] = float64(sign * float64(r))
		if copied {
			keys[i] += float64((1 - float64(rng.Float64())) * (past - keys[i]))
		}
	}
	at := make([]int, len(keys))
	for i := range at {
		at[i] = i
	}
	sort.SliceStable(at, func(a, b int) bool { return keys[at[a]] < keys[at[b]] })
	q := *p
	q.Constraints, q.Blocks, q.mask = make([]Constraint, len(at)), nil, nil
	for i, from := range at {
		q.Constraints[i] = p.Constraints[from]
	}
	return &q
}

// TestDuplicateOrderDoesNotMatter is the property the first-occurrence
// order buys: where the later copies of a constraint sit is invisible to
// the solve — same bits cold and warm, pinned and not — so whatever
// reorders spans upstream (flow blocks, shard arrival) can move a solution
// only by changing which distinct constraint is met first, and then only
// within rounding.
func TestDuplicateOrderDoesNotMatter(t *testing.T) {
	for _, name := range []string{"small", "nopin", "dupheavy", "neardup"} {
		p := kernelProblems()[name]
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			cold := Options{Iterations: 150}
			base := Minimize(p, cold)
			warm := Options{Iterations: 150, WarmStart: base.X, Patience: 25}
			baseWarm := Minimize(p, warm)
			for round := 0; round < 3; round++ {
				q := rearranged(p, rng, false)
				sameBits(t, "cold, copies moved", Minimize(q, cold), base)
				sameBits(t, "warm, copies moved", Minimize(q, warm), baseWarm)
			}
			assertWithinRounding(t, Minimize(rearranged(p, rng, true), cold), base)
		})
	}
}
