package lp

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// This file holds the compiled solver kernel. compile hash-conses a
// Problem's constraints into distinct CSR rows — big code repeats the same
// API triples, so a learned system carries each row several times over —
// and precomputes the free-variable mask and pinned-L1 constant; the
// per-epoch work is then one dot product per distinct row, one branch-free
// sweep that compacts the rows of the violated constraints, and a hinge
// fold and gradient scatter over that compacted list only. One pass yields
// the violations needed for the gradient, the objective of the previous
// epoch's iterate, and the convergence statistics.
//
// Determinism contract: Minimize is bit-for-bit reproducible at every
// shard count, and bit-for-bit what the interpreted pre-kernel loop (the
// minimizeReference oracle in reference_test.go) computes. Rows are
// evaluated independently, so sharding the pass cannot change them, and
// identical rows have identical dot products, so folding them cannot
// either. Every floating-point reduction (hinge fold, L1 fold, gradient
// scatter, Adam update) runs sequentially and keeps the reference's
// operand sequence: the compacted list holds the violated constraints in
// constraint order, and the only terms the scatter skips are those on
// pinned variables, whose gradient entries nobody reads. Objectives agree
// with the reference to ulps, the L1 term being folded through the
// pinned-L1 constant instead of a per-variable scan.

// kernelChunk is the fixed number of rows one pass task covers. Chunk
// boundaries depend only on the problem — never on Options.Shards — so the
// work decomposition is stable across shard counts; since chunks share no
// outputs it only affects scheduling.
const kernelChunk = 2048

// kernel is the compiled form of a Problem.
type kernel struct {
	c      float64
	lambda float64

	// Distinct rows in first-occurrence order: row r owns
	// termVar/termCoef[rowStart[r]:rowStart[r+1]], LHS terms first and RHS
	// terms after with negated coefficients, so one fused dot product
	// (minus C) reproduces Constraint.Violation exactly. rowOf maps each
	// constraint to its row.
	rowStart []int32
	termVar  []int32
	termCoef []float64
	rowOf    []int32

	// The same rows restricted to free variables, term order kept: what
	// the gradient scatter walks.
	freeStart []int32
	freeVar   []int32
	freeCoef  []float64

	masks *problemMask // free mask, pinned indices, pinned-L1 constant

	// Per-pass state. viol[r] caches L_r − R_r − C and hot[r] is 1 when it
	// is positive; active lists the rows of the violated constraints in
	// constraint order (a row appears once per violated duplicate) and
	// nActive is its length. The hinge fold and the scatter read these
	// instead of re-walking constraints.
	viol    []float64
	hot     []uint8
	active  []int32
	nActive int
}

// compile folds p's constraints into distinct rows. Two constraints share
// a row only when their flattened term lists are equal term by term —
// same variables, same coefficient bits, same order — the hash merely
// picks the bucket. It costs about two walks over the terms plus a table
// probe per constraint (≈18 ms for the 193k constraints of a 6000-file
// corpus, where an epoch then takes ≈1.1 ms instead of ≈2.4), so even a
// warm re-solve that stops after 25 epochs comes out ahead.
func compile(p *Problem) *kernel {
	nCons, nTerms := len(p.Constraints), 0
	for i := range p.Constraints {
		nTerms += len(p.Constraints[i].LHS) + len(p.Constraints[i].RHS)
	}
	// Every constraint is staged at the tail of the term arrays and a
	// duplicate truncated away again, so they are sized for no folding at
	// all and cut down to the distinct rows afterwards. (Locals, not kernel
	// fields: the appends below are the hot loop.)
	termVar, termCoef := make([]int32, 0, nTerms), make([]float64, 0, nTerms)
	rowStart := []int32{0}
	rowOf := make([]int32, nCons)

	// Open-addressed table of row+1 (0 = empty) over the rows' hashes,
	// doubled whenever it gets half full so that it stays as small as the
	// distinct rows, not the constraints, require.
	table := make([]int32, 1024)
	var hashes []uint64
	for i := range p.Constraints {
		c := &p.Constraints[i]
		tail := len(termVar)
		h := uint64(14695981039346656037)
		for _, t := range c.LHS {
			termVar, termCoef = append(termVar, int32(t.Var)), append(termCoef, t.Coef)
			h = mixTerm(h, t.Var, t.Coef)
		}
		for _, t := range c.RHS {
			termVar, termCoef = append(termVar, int32(t.Var)), append(termCoef, -t.Coef)
			h = mixTerm(h, t.Var, -t.Coef)
		}
		slot := tableSlot(h, table)
		for ; table[slot] != 0; slot = (slot + 1) & (len(table) - 1) {
			r := table[slot] - 1
			if hashes[r] == h && sameTerms(termVar, termCoef, int(rowStart[r]), int(rowStart[r+1]), tail) {
				break
			}
		}
		if table[slot] != 0 {
			rowOf[i] = table[slot] - 1
			termVar, termCoef = termVar[:tail], termCoef[:tail]
			continue
		}
		rowOf[i] = int32(len(hashes))
		hashes = append(hashes, h)
		table[slot] = int32(len(hashes))
		rowStart = append(rowStart, int32(len(termVar)))
		if 2*len(hashes) > len(table) {
			table = make([]int32, 2*len(table))
			for r, rh := range hashes {
				slot := tableSlot(rh, table)
				for table[slot] != 0 {
					slot = (slot + 1) & (len(table) - 1)
				}
				table[slot] = int32(r + 1)
			}
		}
	}

	nRows := len(hashes)
	k := &kernel{
		c:         p.C,
		lambda:    p.Lambda,
		rowStart:  rowStart,
		termVar:   slices.Clone(termVar),
		termCoef:  slices.Clone(termCoef),
		rowOf:     rowOf,
		freeStart: make([]int32, 1, nRows+1),
		freeVar:   make([]int32, 0, len(termVar)),
		freeCoef:  make([]float64, 0, len(termVar)),
		masks:     p.masks(),
		viol:      make([]float64, nRows),
		hot:       make([]uint8, nRows),
		active:    make([]int32, nCons),
	}
	free := k.masks.free
	for r := 0; r < nRows; r++ {
		for t := rowStart[r]; t < rowStart[r+1]; t++ {
			if v := termVar[t]; free[v] {
				k.freeVar, k.freeCoef = append(k.freeVar, v), append(k.freeCoef, termCoef[t])
			}
		}
		k.freeStart = append(k.freeStart, int32(len(k.freeVar)))
	}
	return k
}

// mixTerm folds one term into a row hash (FNV-1a over the two words).
func mixTerm(h uint64, v int, coef float64) uint64 {
	h = (h ^ uint64(v)) * 1099511628211
	return (h ^ math.Float64bits(coef)) * 1099511628211
}

// tableSlot is the home slot of hash h in a power-of-two table.
func tableSlot(h uint64, table []int32) int { return int(h>>32^h) & (len(table) - 1) }

// sameTerms reports whether the committed row [lo, hi) equals the row
// staged at [tail, len).
func sameTerms(vars []int32, coefs []float64, lo, hi, tail int) bool {
	if hi-lo != len(vars)-tail {
		return false
	}
	for t := lo; t < hi; t++ {
		s := tail + t - lo
		if vars[t] != vars[s] || math.Float64bits(coefs[t]) != math.Float64bits(coefs[s]) {
			return false
		}
	}
	return true
}

// rows is the number of distinct rows.
func (k *kernel) rows() int { return len(k.rowStart) - 1 }

// pin resets the known variables to their pinned values.
func (k *kernel) pin(x []float64) {
	for i, v := range k.masks.pinIdx {
		x[v] = k.masks.pinVal[i]
	}
}

// passChunk computes viol[r] and hot[r] for the rows of one chunk.
func (k *kernel) passChunk(ci int, x []float64) {
	lo := ci * kernelChunk
	hi := lo + kernelChunk
	if hi > k.rows() {
		hi = k.rows()
	}
	for r := lo; r < hi; r++ {
		s, e := k.rowStart[r], k.rowStart[r+1]
		vars, coefs := k.termVar[s:e], k.termCoef[s:e]
		v := -k.c
		for t, tv := range vars {
			v += coefs[t] * x[tv]
		}
		k.viol[r] = v
		var h uint8
		if v > 0 {
			h = 1
		}
		k.hot[r] = h
	}
}

// pass recomputes every row's violation at x, sharding the row loop over
// up to `shards` goroutines, rebuilds the active list, and returns the
// total hinge violation. The compaction and the fold run sequentially in
// constraint order, so the result does not depend on shards.
func (k *kernel) pass(x []float64, shards int) float64 {
	nChunks := (k.rows() + kernelChunk - 1) / kernelChunk
	if shards > nChunks {
		shards = nChunks
	}
	if shards <= 1 {
		for ci := 0; ci < nChunks; ci++ {
			k.passChunk(ci, x)
		}
	} else {
		var next atomic.Int64
		next.Store(-1)
		var wg sync.WaitGroup
		for w := 0; w < shards; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					ci := int(next.Add(1))
					if ci >= nChunks {
						return
					}
					k.passChunk(ci, x)
				}
			}()
		}
		wg.Wait()
	}
	// Branch-free compaction: every constraint writes its row at the
	// cursor, and only a violated one advances it.
	active, hot := k.active, k.hot
	n := 0
	for _, r := range k.rowOf {
		active[n] = r
		n += int(hot[r])
	}
	k.nActive = n
	hinge := 0.0
	for _, r := range active[:n] {
		hinge += k.viol[r]
	}
	return hinge
}

// objectiveAt adds the λ-weighted free-variable L1 term onto a hinge
// total. Inside the solver x always carries its pinned values, so the
// free-variable L1 mass is the branchless full sum minus the precomputed
// pinned-L1 constant — no per-variable mask test or map lookup.
func (k *kernel) objectiveAt(hinge float64, x []float64) float64 {
	sum := 0.0
	for _, xi := range x {
		sum += xi
	}
	return hinge + k.lambda*sum - k.masks.pinnedL1
}

// scatter rebuilds the subgradient from the active list of the last pass,
// over free-variable terms only: pinned entries of grad stay 0 and are
// never read. It always runs sequentially in constraint order, which keeps
// the free gradient bit-identical at every shard count (and to the
// reference solver).
func (k *kernel) scatter(grad []float64) {
	free := k.masks.free
	for i := range grad {
		if free[i] {
			grad[i] = k.lambda
		} else {
			grad[i] = 0
		}
	}
	for _, r := range k.active[:k.nActive] {
		s, e := k.freeStart[r], k.freeStart[r+1]
		vars, coefs := k.freeVar[s:e], k.freeCoef[s:e]
		for t, tv := range vars {
			grad[tv] += coefs[t]
		}
	}
}

// minimizeKernel is Minimize's engine: compiled constraints, one fused
// pass per epoch, and the previous epoch's objective reused instead of
// recomputed. The iterate/best/stopping bookkeeping is re-timed — epoch
// t's post-update objective is evaluated by epoch t+1's pass (or by one
// trailing pass after the loop) — but the computed sequence of iterates,
// objectives, and stopping decisions is exactly that of the interpreted
// reference loop (minimizeReference, reference_test.go).
func minimizeKernel(p *Problem, opts Options) *Result {
	k := compile(p)
	n := p.NumVars
	x := make([]float64, n)
	if len(opts.WarmStart) == n {
		// Warm start: clamp the donated iterate into the box, then pin.
		// Pinned variables always carry their pinned values regardless of
		// what the warm vector says.
		for i, v := range opts.WarmStart {
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			x[i] = v
		}
	}
	k.pin(x)

	if opts.Iterations < 1 {
		hinge := k.pass(x, opts.Shards)
		return &Result{X: x, Objective: k.objectiveAt(hinge, x), Violation: hinge, Rows: k.rows()}
	}

	grad := make([]float64, n)
	m := make([]float64, n)
	vv := make([]float64, n)
	free := k.masks.free

	best := append([]float64(nil), x...)
	bestObj := math.Inf(1)
	prevObj := math.Inf(1)
	iters := 0
	stale := 0
	tel := newEpochTelemetry(opts, nil) // the update loop accumulates stepSq itself
	// Telemetry for the epoch whose objective is still pending.
	var gradSq, stepSq float64
	pending := false

	for t := 1; t <= opts.Iterations; t++ {
		// One fused pass: the violations drive this epoch's gradient AND
		// deliver the objective of the previous epoch's iterate.
		hinge := k.pass(x, opts.Shards)
		if t == 1 {
			bestObj = k.objectiveAt(hinge, x) // objective of the start point
		} else {
			obj := k.objectiveAt(hinge, x)
			if obj < bestObj {
				bestObj = obj
				copy(best, x)
				stale = 0
			} else {
				stale++
			}
			tel.emitPrecomputed(t-1, obj, bestObj, hinge, k.nActive, gradSq, stepSq)
			pending = false
			if math.Abs(prevObj-obj) < opts.Tolerance {
				break
			}
			if opts.Patience > 0 && stale >= opts.Patience {
				break
			}
			prevObj = obj
		}

		k.scatter(grad)
		// Adam update with bias correction, then projection. Pinned
		// variables are never touched, so no re-pinning is needed.
		b1t := 1 - math.Pow(opts.Beta1, float64(t))
		b2t := 1 - math.Pow(opts.Beta2, float64(t))
		gradSq, stepSq = 0, 0
		for i := 0; i < n; i++ {
			if !free[i] {
				continue
			}
			g := grad[i]
			m[i] = opts.Beta1*m[i] + (1-opts.Beta1)*g
			vv[i] = opts.Beta2*vv[i] + (1-opts.Beta2)*g*g
			mHat := m[i] / b1t
			vHat := vv[i] / b2t
			old := x[i]
			x[i] -= opts.LearnRate * mHat / (math.Sqrt(vHat) + opts.Eps)
			if x[i] < 0 {
				x[i] = 0
			} else if x[i] > 1 {
				x[i] = 1
			}
			if tel != nil {
				gradSq += g * g
				d := x[i] - old
				stepSq += d * d
			}
		}
		iters = t
		pending = true
	}

	if pending {
		// The loop exhausted its budget with the last update unevaluated:
		// one trailing violation-only pass settles its objective.
		hinge := k.pass(x, opts.Shards)
		obj := k.objectiveAt(hinge, x)
		if obj < bestObj {
			bestObj = obj
			copy(best, x)
		}
		tel.emitPrecomputed(iters, obj, bestObj, hinge, k.nActive, gradSq, stepSq)
	}
	return &Result{
		X:          best,
		Objective:  bestObj,
		Violation:  k.pass(best, opts.Shards),
		Iterations: iters,
		Rows:       k.rows(),
	}
}
