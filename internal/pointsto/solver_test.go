// Package pointsto implements inclusion-based (Andersen-style) points-to
// analysis with field sensitivity — the classical algorithm the paper's
// §5.2 builds its propagation-graph construction on (Smaragdakis &
// Balatsouras, "Pointer Analysis", FnT PL 2015). Nothing in the product
// calls it: it is the oracle crosscheck_test.go holds internal/dataflow's
// object model to, so the package is test files only.
//
// The solver processes four constraint forms over pointer variables and
// abstract objects (allocation sites):
//
//	AddAlloc(p, o)      p ⊇ {o}         x = alloc()
//	AddCopy(dst, src)   dst ⊇ src       x = y
//	AddLoad(dst, b, f)  dst ⊇ o.f  ∀o∈pts(b)    x = y.f
//	AddStore(b, f, src) o.f ⊇ src ∀o∈pts(b)     x.f = y
//
// Solve runs the standard worklist algorithm to the least fixpoint; the
// result over- and under-approximates runtime aliasing exactly as the
// constraint forms dictate (flow-insensitive, context-insensitive).
package pointsto

import (
	"fmt"
	"math/bits"
	"sort"
)

// Var is a pointer variable handle.
type Var int

// Object is an allocation-site handle.
type Object int

// Solver accumulates constraints and computes points-to sets.
type Solver struct {
	varNames []string
	objNames []string

	pts   []objset // per variable
	succ  [][]Var  // copy edges: pts flows from v to succ[v]
	loads []struct {
		dst   Var
		base  Var
		field string
	}
	stores []struct {
		base  Var
		field string
		src   Var
	}
	// fieldVars maps (object, field) to the variable holding that field's
	// points-to set.
	fieldVars map[fieldKey]Var
	solved    bool
}

type fieldKey struct {
	obj   Object
	field string
}

// NewSolver returns an empty solver.
func NewSolver() *Solver {
	return &Solver{fieldVars: make(map[fieldKey]Var)}
}

// NewVar introduces a pointer variable. The name is for diagnostics only.
func (s *Solver) NewVar(name string) Var {
	s.varNames = append(s.varNames, name)
	s.pts = append(s.pts, nil)
	s.succ = append(s.succ, nil)
	s.solved = false
	return Var(len(s.varNames) - 1)
}

// NewObject introduces an allocation site.
func (s *Solver) NewObject(name string) Object {
	s.objNames = append(s.objNames, name)
	s.solved = false
	return Object(len(s.objNames) - 1)
}

// VarName returns a variable's diagnostic name.
func (s *Solver) VarName(v Var) string { return s.varNames[v] }

// ObjectName returns an object's diagnostic name.
func (s *Solver) ObjectName(o Object) string { return s.objNames[o] }

// AddAlloc records p ⊇ {o}.
func (s *Solver) AddAlloc(p Var, o Object) {
	s.pts[p] = s.pts[p].with(int(o))
	s.solved = false
}

// AddCopy records dst ⊇ src.
func (s *Solver) AddCopy(dst, src Var) {
	if dst == src {
		return
	}
	s.succ[src] = append(s.succ[src], dst)
	s.solved = false
}

// AddLoad records dst ⊇ o.f for every o the base may point to.
func (s *Solver) AddLoad(dst, base Var, field string) {
	s.loads = append(s.loads, struct {
		dst   Var
		base  Var
		field string
	}{dst, base, field})
	s.solved = false
}

// AddStore records o.f ⊇ src for every o the base may point to.
func (s *Solver) AddStore(base Var, field string, src Var) {
	s.stores = append(s.stores, struct {
		base  Var
		field string
		src   Var
	}{base, field, src})
	s.solved = false
}

// fieldVar returns (lazily creating) the variable for o.field.
func (s *Solver) fieldVar(o Object, field string) Var {
	key := fieldKey{o, field}
	if v, ok := s.fieldVars[key]; ok {
		return v
	}
	v := s.NewVar(fmt.Sprintf("%s.%s", s.objNames[o], field))
	s.fieldVars[key] = v
	return v
}

// Solve computes the least fixpoint with the standard worklist algorithm.
// It is idempotent and may be called again after adding constraints.
func (s *Solver) Solve() {
	if s.solved {
		return
	}
	// Copy-edge dedup set built dynamically for load/store expansion.
	edgeSeen := make(map[[2]Var]bool)
	for src, dsts := range s.succ {
		for _, dst := range dsts {
			edgeSeen[[2]Var{Var(src), dst}] = true
		}
	}
	addEdge := func(src, dst Var, work *[]Var) {
		if src == dst || edgeSeen[[2]Var{src, dst}] {
			return
		}
		edgeSeen[[2]Var{src, dst}] = true
		s.succ[src] = append(s.succ[src], dst)
		if len(s.pts[src]) != 0 {
			*work = append(*work, src)
		}
	}

	// Index dereferencing constraints by their base variable.
	loadsByBase := make(map[Var][]int)
	for i, ld := range s.loads {
		loadsByBase[ld.base] = append(loadsByBase[ld.base], i)
	}
	storesByBase := make(map[Var][]int)
	for i, st := range s.stores {
		storesByBase[st.base] = append(storesByBase[st.base], i)
	}

	work := make([]Var, 0, len(s.pts))
	for v := range s.pts {
		if len(s.pts[v]) != 0 {
			work = append(work, Var(v))
		}
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]

		// Expand load/store constraints whose base is v.
		for _, li := range loadsByBase[v] {
			ld := s.loads[li]
			s.pts[ld.base].forEach(func(i int) {
				addEdge(s.fieldVar(Object(i), ld.field), ld.dst, &work)
			})
		}
		for _, si := range storesByBase[v] {
			st := s.stores[si]
			s.pts[st.base].forEach(func(i int) {
				addEdge(st.src, s.fieldVar(Object(i), st.field), &work)
			})
		}

		// Propagate along copy edges.
		for _, dst := range s.succ[v] {
			if changed := s.pts[dst].orChanged(&s.pts[dst], s.pts[v]); changed {
				work = append(work, dst)
			}
		}
	}
	s.solved = true
}

// PointsTo returns the objects v may point to, sorted. Solve is run if
// needed.
func (s *Solver) PointsTo(v Var) []Object {
	s.Solve()
	var out []Object
	s.pts[v].forEach(func(i int) { out = append(out, Object(i)) })
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FieldPointsTo returns the objects o.field may point to.
func (s *Solver) FieldPointsTo(o Object, field string) []Object {
	s.Solve()
	if v, ok := s.fieldVars[fieldKey{o, field}]; ok {
		return s.PointsTo(v)
	}
	return nil
}

// Alias reports whether two variables may point to a common object.
func (s *Solver) Alias(a, b Var) bool {
	s.Solve()
	pa, pb := s.pts[a], s.pts[b]
	n := len(pa)
	if len(pb) < n {
		n = len(pb)
	}
	for i := 0; i < n; i++ {
		if pa[i]&pb[i] != 0 {
			return true
		}
	}
	return false
}

// objset is a growable bitset of object indices.
type objset []uint64

func (b objset) with(i int) objset {
	for i/64 >= len(b) {
		b = append(b, 0)
	}
	b[i/64] |= 1 << (i % 64)
	return b
}

// orChanged merges other into *dst, growing as needed, and reports change.
func (objset) orChanged(dst *objset, other objset) bool {
	for len(*dst) < len(other) {
		*dst = append(*dst, 0)
	}
	changed := false
	for i := range other {
		if next := (*dst)[i] | other[i]; next != (*dst)[i] {
			(*dst)[i] = next
			changed = true
		}
	}
	return changed
}

func (b objset) forEach(f func(i int)) {
	for w, word := range b {
		for word != 0 {
			bit := word & (-word)
			f(w*64 + bits.TrailingZeros64(bit))
			word ^= bit
		}
	}
}
