package lp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// fuzzInput reads a fuzz input a byte at a time; an exhausted input reads
// as zeros.
type fuzzInput struct{ data []byte }

func (in *fuzzInput) byte() byte {
	if len(in.data) == 0 {
		return 0
	}
	b := in.data[0]
	in.data = in.data[1:]
	return b
}

// coef is one of the backoff coefficients, or — one draw in sixteen — the
// next eight bytes as a float64, whatever they spell.
func (in *fuzzInput) coef() float64 {
	b := in.byte()
	if b < 0xf0 {
		return backoffCoefs[int(b)%len(backoffCoefs)]
	}
	var raw [8]byte
	for i := range raw {
		raw[i] = in.byte()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
}

func (in *fuzzInput) terms(n, nVars int) []Term {
	ts := make([]Term, n)
	for i := range ts {
		ts[i] = Term{Var: int(in.byte()) % nVars, Coef: in.coef()}
	}
	return ts
}

// fuzzProblem reads a problem of at most 64 variables and 512 constraints:
// up to a third of the variables pinned, and per constraint one byte that
// says whether it is a new one (up to two terms left, three right), an
// exact copy of an earlier one, or an earlier one with one coefficient or
// one variable changed or its sides swapped.
func fuzzProblem(in *fuzzInput) *Problem {
	nVars := 1 + int(in.byte())%64
	p := &Problem{NumVars: nVars, C: 0.75, Lambda: 0.1, Known: map[int]float64{}}
	for n := int(in.byte()) % (nVars/3 + 1); n > 0; n-- {
		p.Known[int(in.byte())%nVars] = float64(in.byte()%5) / 4
	}
	for len(in.data) > 0 && len(p.Constraints) < 512 {
		op := in.byte()
		if op%4 >= 2 || len(p.Constraints) == 0 {
			p.Constraints = append(p.Constraints, Constraint{
				LHS: in.terms(int(op>>2)%3, nVars),
				RHS: in.terms(int(op>>4)%4, nVars),
			})
			continue
		}
		old := p.Constraints[int(in.byte())%len(p.Constraints)]
		c := Constraint{LHS: append([]Term(nil), old.LHS...), RHS: append([]Term(nil), old.RHS...)}
		if op%4 == 1 {
			switch {
			case op&4 != 0:
				c.LHS, c.RHS = c.RHS, c.LHS
			case len(c.RHS) == 0:
				c.RHS = in.terms(1, nVars)
			case op&8 != 0:
				c.RHS[len(c.RHS)-1].Coef = in.coef()
			default:
				c.RHS[0].Var = int(in.byte()) % nVars
			}
		}
		p.Constraints = append(p.Constraints, c)
	}
	return p
}

// sameFloat is bit equality, except that any NaN equals any other: a
// negated NaN coefficient keeps its sign through the kernel's addition and
// loses it in the reference's subtraction.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// FuzzKernelMatchesReference reads its input as a small problem — forced
// duplicates and near-duplicates, coefficients from {1, ½, ⅓} and raw float
// bits, non-finite ones included — and a way to solve it: 0–60 epochs, cold
// or from a warm vector that need not lie in the box, one shard or three,
// and optionally cut into keyed blocks and solved through a standing
// RowTable, then once more through the same table with the blocks rotated,
// so that the table's row numbers are not the problem's first-occurrence
// order. The kernel must return what the interpreted solver of the folded
// problem returns: the same epoch count, the same violated-constraint count
// in every epoch, and the same bits in every coordinate, the objective and
// the violation.
func FuzzKernelMatchesReference(f *testing.F) {
	f.Add([]byte{7, 2, 0, 4, 3, 0, 30, 0x3a, 0, 0, 1, 1, 2, 2, 0x00, 0, 0x3a, 3, 1, 4, 0, 5, 2, 0x09, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzInput{data}
		mode, epochs := in.byte(), int(in.byte())%61
		var warm []float64
		if mode&1 != 0 {
			warm = make([]float64, 64)
			for i := range warm {
				warm[i] = float64(in.byte())/128 - 0.5
			}
		}
		p := fuzzProblem(in)
		opts := Options{Iterations: epochs, Shards: 1 + int(mode&2), Patience: int(mode >> 4)}
		if epochs == 0 {
			opts.Iterations = -1 // 0 would select the default budget
		}
		if warm != nil {
			opts.WarmStart = warm[:p.NumVars]
		}

		check := func(label string, p *Problem, rows *RowTable) {
			var refActive, kerActive []int
			ref := opts
			ref.OnEpoch = func(s EpochStats) { refActive = append(refActive, s.Active) }
			want := minimizeReference(p, ref)
			ker := opts
			ker.Rows, ker.OnEpoch = rows, func(s EpochStats) { kerActive = append(kerActive, s.Active) }
			got := minimizeKernel(p, ker.withDefaults())
			if got.Iterations != want.Iterations || len(kerActive) != len(refActive) {
				t.Fatalf("%s: %d epochs (%d reported), reference %d (%d)", label, got.Iterations, len(kerActive), want.Iterations, len(refActive))
			}
			for i := range refActive {
				if kerActive[i] != refActive[i] {
					t.Fatalf("%s: epoch %d: %d constraints violated, reference %d", label, i+1, kerActive[i], refActive[i])
				}
			}
			for i := range want.X {
				if !sameFloat(got.X[i], want.X[i]) {
					t.Fatalf("%s: x[%d] = %v, reference %v", label, i, got.X[i], want.X[i])
				}
			}
			if !sameFloat(got.Objective, want.Objective) || !sameFloat(got.Violation, want.Violation) {
				t.Fatalf("%s: objective/violation %v/%v, reference %v/%v", label, got.Objective, got.Violation, want.Objective, want.Violation)
			}
		}
		if mode&4 == 0 {
			check("fresh table", p, nil)
			return
		}
		tab := NewRowTable()
		p.Blocks = cutBlocks(p, rand.New(rand.NewSource(int64(mode))))
		check("standing table", p, tab)
		if len(p.Blocks) > 1 {
			head := p.Blocks[0].N
			q := withBlocks(p, append(append([]Block(nil), p.Blocks[1:]...), p.Blocks[0]))
			q.Constraints = append(append([]Constraint(nil), p.Constraints[head:]...), p.Constraints[:head]...)
			check("standing table, blocks rotated", q, tab)
		}
	})
}
