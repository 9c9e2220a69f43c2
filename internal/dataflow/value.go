// Package dataflow builds propagation graphs from Python ASTs (paper §5).
//
// The analyzer is a flow-sensitive abstract interpreter. Abstract values
// are sets of objects; each object remembers the event that created it and
// a field map (field-sensitive, Andersen-style: assignments join points-to
// sets, §5.2). Loops are analyzed as a single iteration, calls to unknown
// functions are allocation sites, and functions defined in the same file
// are linked through parameter/return summaries (the paper's inlining).
//
// Everything the interpreter allocates while it runs — objects, object
// sets, symbolic paths, environments — comes from a Scratch (scratch.go)
// and dies with the analysis; only the graph survives it.
package dataflow

import "sort"

// elemKey is the pseudo-field holding container elements (lists, dicts,
// tuples, sets), giving the paper's "information flows from any entry to
// the whole list" behaviour plus read-back through iteration/indexing.
const elemKey = "*elem*"

// object is an abstract runtime value: an allocation site with fields.
// Instances of locally defined classes also remember their class, so
// method calls on them can be linked to the statically known bodies.
type object struct {
	event  int // ID of the event that produced it, or -1
	fields map[string][]*object
	class  *classDef // non-nil for instances of local classes
	mark   uint32    // last Scratch.stamp that visited it (set dedup)
}

func (o *object) field(name string) []*object { return o.fields[name] }

func (o *object) addField(sc *Scratch, name string, vals []*object) {
	if len(vals) == 0 {
		return
	}
	if o.fields == nil {
		o.fields = sc.fieldMaps.get()
	}
	o.fields[name] = sc.union(o.fields[name], vals)
}

// Object sets are immutable once built: union returns x itself or a new
// run, never writes into x's backing array, so sets can be shared between
// variables, environments and fields without copying.

// smallSet is the combined size up to which union dedups by scanning; a
// larger union stamps the objects instead. Neither allocates.
const smallSet = 16

// union merges two object sets without duplicates, preserving order: x,
// then the objects of y not already present.
func (sc *Scratch) union(x, y []*object) []*object {
	if len(y) == 0 {
		return x
	}
	fresh := sc.tmp[:0]
	if len(x)+len(y) <= smallSet {
		for _, o := range y {
			if !contains(x, o) && !contains(fresh, o) {
				fresh = append(fresh, o)
			}
		}
	} else {
		st := sc.nextStamp()
		for _, o := range x {
			o.mark = st
		}
		for _, o := range y {
			if o.mark != st {
				o.mark = st
				fresh = append(fresh, o)
			}
		}
	}
	sc.tmp = fresh
	if len(fresh) == 0 {
		return x
	}
	out := sc.sets.Alloc(len(x) + len(fresh))
	copy(out[copy(out, x):], fresh)
	return out
}

func contains(set []*object, o *object) bool {
	for _, p := range set {
		if p == o {
			return true
		}
	}
	return false
}

// collectEvents gathers the events carried by objs: their own creating
// events plus events reachable through fields, to a bounded depth. This is
// what flows into an event when the objects are used as arguments. The
// result is valid until the next collectEvents call.
func (sc *Scratch) collectEvents(objs []*object, depth int) []int {
	sc.events = sc.events[:0]
	sc.collect(objs, depth, sc.nextStamp())
	return sc.events
}

func (sc *Scratch) collect(objs []*object, depth int, st uint32) {
	for _, o := range objs {
		if o.mark == st {
			continue
		}
		o.mark = st
		if o.event >= 0 {
			for o.event >= len(sc.eventMark) {
				sc.eventMark = append(sc.eventMark, 0)
			}
			if sc.eventMark[o.event] != st {
				sc.eventMark[o.event] = st
				sc.events = append(sc.events, o.event)
			}
		}
		if depth > 0 && len(o.fields) > 0 {
			// Field names in sorted order, on a stack shared by the
			// recursion; index it afresh each round, it may have moved.
			lo := len(sc.names)
			for n := range o.fields {
				sc.names = append(sc.names, n)
			}
			hi := len(sc.names)
			sort.Strings(sc.names[lo:hi])
			for i := lo; i < hi; i++ {
				sc.collect(o.fields[sc.names[i]], depth-1, st)
			}
			clear(sc.names[lo:hi]) // they are substrings of the source text
			sc.names = sc.names[:lo]
		}
	}
}

// binding is what an environment knows about one variable: its abstract
// value and, optionally, the symbolic path of its defining expression (so
// `cur = conn.cursor()` followed by `cur.execute(q)` yields the chained
// representation MySQLdb.connect().cursor().execute()).
type binding struct {
	objs []*object
	path *sympath
}

// env maps local variable names to bindings. Environments are cloned at
// branches and merged (pointwise union; conflicting paths are dropped) at
// join points. The map is created on first write.
type env struct {
	sc   *Scratch
	vars map[string]binding
}

func (e *env) get(name string) []*object { return e.vars[name].objs }

func (e *env) path(name string) *sympath { return e.vars[name].path }

func (e *env) set(name string, objs []*object) { e.setWithPath(name, objs, nil) }

func (e *env) setWithPath(name string, objs []*object, p *sympath) {
	if e.vars == nil {
		e.vars = e.sc.vars.get()
	}
	e.vars[name] = binding{objs, p}
}

func (e *env) add(name string, objs []*object) {
	e.set(name, e.sc.union(e.get(name), objs))
}

func (e *env) delete(name string) { delete(e.vars, name) }

func (e *env) clone() *env {
	c := e.sc.newEnv()
	if len(e.vars) > 0 {
		c.vars = e.sc.vars.get()
		for k, b := range e.vars {
			c.vars[k] = b
		}
	}
	return c
}

// merge joins another environment into e (pointwise union). A variable
// keeps its symbolic path only when both branches agree on it.
func (e *env) merge(other *env) {
	for k, ob := range other.vars {
		b := e.vars[k]
		e.setWithPath(k, e.sc.union(b.objs, ob.objs), b.path)
	}
	for k, b := range e.vars {
		if b.path != nil && other.vars[k].path != b.path {
			e.vars[k] = binding{objs: b.objs}
		}
	}
}

// allObjects returns every object bound in the environment, in
// deterministic (sorted variable name) order; used to model locals().
func (e *env) allObjects() []*object {
	names := make([]string, 0, len(e.vars))
	for n := range e.vars {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []*object
	for _, n := range names {
		out = e.sc.union(out, e.vars[n].objs)
	}
	return out
}
