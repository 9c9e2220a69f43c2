package dataflow

import (
	"strings"

	"seldon/internal/propgraph"
	"seldon/internal/pyast"
)

// analyzeBody processes a statement list flow-sensitively.
func (a *analyzer) analyzeBody(fe *funcEnv, body []pyast.Stmt) {
	for _, s := range body {
		a.analyzeStmt(fe, s)
	}
}

func (a *analyzer) analyzeStmt(fe *funcEnv, s pyast.Stmt) {
	switch st := s.(type) {
	case *pyast.Import:
		for _, al := range st.Names {
			segs := a.splitDotted(al.Name)
			if al.AsName != "" {
				a.sc.imports[al.AsName] = segs
			} else {
				// `import a.b` binds `a`.
				a.sc.imports[segs[0]] = segs[:1]
			}
		}
	case *pyast.ImportFrom:
		prefix := a.splitDotted(st.Module)
		for _, al := range st.Names {
			if al.Name == "*" {
				continue // wildcard imports cannot be resolved statically
			}
			name := a.splitDotted(al.Name)
			segs := a.sc.strs.Alloc(len(prefix) + len(name))
			copy(segs[copy(segs, prefix):], name)
			local := al.AsName
			if local == "" {
				local = al.Name
			}
			a.sc.imports[local] = segs
		}

	case *pyast.Assign:
		objs, path := a.eval(fe, st.Value)
		for _, tgt := range st.Targets {
			if nm, ok := tgt.(*pyast.Name); ok {
				// Remember the defining expression's path so later uses of
				// the variable produce chained representations.
				fe.env.setWithPath(nm.Ident, objs, path)
				a.bind(fe, nm.Ident, isReassigned)
				continue
			}
			a.assignTo(fe, tgt, objs)
		}
	case *pyast.AugAssign:
		objs, _ := a.eval(fe, st.Value)
		// The target keeps its previous values and gains the new ones.
		if nm, ok := st.Target.(*pyast.Name); ok {
			fe.env.add(nm.Ident, objs)
			a.bind(fe, nm.Ident, isReassigned)
		} else {
			a.assignTo(fe, st.Target, objs)
		}
	case *pyast.AnnAssign:
		if st.Value != nil {
			objs, _ := a.eval(fe, st.Value)
			a.assignTo(fe, st.Target, objs)
		}

	case *pyast.ExprStmt:
		a.eval(fe, st.Value)
	case *pyast.Return:
		if st.Value != nil {
			objs, _ := a.eval(fe, st.Value)
			if fe.cur != nil {
				fe.cur.returns = a.sc.union(fe.cur.returns, objs)
			}
		}
	case *pyast.Delete:
		for _, t := range st.Targets {
			if nm, ok := t.(*pyast.Name); ok {
				fe.env.delete(nm.Ident)
			} else {
				a.eval(fe, t)
			}
		}
	case *pyast.Raise:
		if st.Exc != nil {
			a.eval(fe, st.Exc)
		}
		if st.Cause != nil {
			a.eval(fe, st.Cause)
		}
	case *pyast.Assert:
		a.eval(fe, st.Cond)
		if st.Msg != nil {
			a.eval(fe, st.Msg)
		}

	case *pyast.If:
		a.eval(fe, st.Cond)
		thenEnv := fe.env.clone()
		elseEnv := fe.env.clone()
		a.withEnv(fe, thenEnv, func() { a.analyzeBody(fe, st.Body) })
		a.withEnv(fe, elseEnv, func() { a.analyzeBody(fe, st.Else) })
		thenEnv.merge(elseEnv)
		fe.env = thenEnv
	case *pyast.While:
		a.eval(fe, st.Cond)
		// Single iteration (§5.2): body analyzed once, result merged with
		// the zero-iteration environment.
		body := fe.env.clone()
		a.withEnv(fe, body, func() {
			a.analyzeBody(fe, st.Body)
			a.analyzeBody(fe, st.Else)
		})
		fe.env.merge(body)
	case *pyast.For:
		iterObjs, _ := a.eval(fe, st.Iter)
		elems := a.elementsOf(iterObjs)
		body := fe.env.clone()
		a.withEnv(fe, body, func() {
			a.assignTo(fe, st.Target, elems)
			a.analyzeBody(fe, st.Body)
			a.analyzeBody(fe, st.Else)
		})
		fe.env.merge(body)
	case *pyast.With:
		for _, item := range st.Items {
			objs, _ := a.eval(fe, item.Context)
			if item.Vars != nil {
				a.assignTo(fe, item.Vars, objs)
			}
		}
		a.analyzeBody(fe, st.Body)
	case *pyast.Try:
		a.analyzeBody(fe, st.Body)
		after := fe.env.clone()
		for _, h := range st.Handlers {
			henv := after.clone()
			a.withEnv(fe, henv, func() {
				if h.Type != nil {
					a.eval(fe, h.Type)
				}
				if h.Name != "" {
					fe.env.set(h.Name, a.sc.opaque())
					a.bind(fe, h.Name, isReassigned)
				}
				a.analyzeBody(fe, h.Body)
			})
			fe.env.merge(henv)
		}
		a.analyzeBody(fe, st.Else)
		a.analyzeBody(fe, st.Finally)

	case *pyast.FunctionDef:
		a.registerFunc(fe, st, nil)
	case *pyast.ClassDef:
		a.registerClass(fe, st)

	case *pyast.Global, *pyast.Nonlocal, *pyast.Pass, *pyast.Break, *pyast.Continue:
		// No dataflow effect at our abstraction level.
	}
}

// withEnv runs f with fe.env temporarily replaced by e.
func (a *analyzer) withEnv(fe *funcEnv, e *env, f func()) {
	saved := fe.env
	fe.env = e
	f()
	fe.env = saved
}

// elementsOf extracts container elements of objs, falling back to the
// containers themselves when no element information exists (so iteration
// over an unknown value still propagates its taint).
func (a *analyzer) elementsOf(objs []*object) []*object {
	var elems []*object
	for _, o := range objs {
		elems = a.sc.union(elems, o.field(elemKey))
	}
	if len(elems) == 0 {
		return objs
	}
	return a.sc.union(elems, objs)
}

// assignTo binds objs to an assignment target.
func (a *analyzer) assignTo(fe *funcEnv, target pyast.Expr, objs []*object) {
	switch t := target.(type) {
	case *pyast.Name:
		fe.env.set(t.Ident, objs)
		a.bind(fe, t.Ident, isReassigned)
	case *pyast.Attribute:
		base, _ := a.eval(fe, t.Value)
		for _, o := range base {
			o.addField(a.sc, t.Attr, objs)
		}
	case *pyast.Subscript:
		base, _ := a.eval(fe, t.Value)
		a.eval(fe, t.Index)
		for _, o := range base {
			o.addField(a.sc, elemKey, objs)
		}
	case *pyast.Tuple:
		a.assignToEach(fe, t.Elts, objs)
	case *pyast.List:
		a.assignToEach(fe, t.Elts, objs)
	case *pyast.Starred:
		a.assignTo(fe, t.Value, objs)
	}
}

func (a *analyzer) assignToEach(fe *funcEnv, targets []pyast.Expr, objs []*object) {
	elems := a.elementsOf(objs)
	for _, tgt := range targets {
		a.assignTo(fe, tgt, elems)
	}
}

// ---------------------------------------------------------------------------
// Function and class registration

// registerFunc declares a function in the current scope. Its decorators and
// parameter defaults are evaluated now (they execute at definition time);
// the body is analyzed lazily on first call or at end of module.
func (a *analyzer) registerFunc(fe *funcEnv, def *pyast.FunctionDef, class *classDef) *funcDef {
	ctx := propgraph.RepContext{Function: def.Name}
	if class != nil {
		ctx.Class = class.name
		ctx.ClassBases = class.bases
	}
	fd := a.sc.funcDefs.New()
	*fd = funcDef{def: def, ctx: ctx, outer: fe, class: class,
		paramOrder:  a.sc.strs.Alloc(len(def.Params)),
		paramEvents: a.sc.ints.Alloc(len(def.Params))}
	for _, dec := range def.Decorators {
		a.eval(fe, dec)
	}
	for i, p := range def.Params {
		if p.Default != nil {
			a.eval(fe, p.Default)
		}
		fd.paramOrder[i] = p.Name
		fd.paramEvents[i] = -1
	}
	if class == nil {
		if fe.locals == nil {
			fe.locals = a.sc.funcs.get()
		}
		fe.locals[def.Name] = fd
	}
	a.sc.order = append(a.sc.order, fd)
	return fd
}

func (a *analyzer) registerClass(fe *funcEnv, def *pyast.ClassDef) {
	cd := &classDef{name: def.Name, methods: a.sc.funcs.get()}
	for _, dec := range def.Decorators {
		a.eval(fe, dec)
	}
	for _, b := range def.Bases {
		if q := a.qualifyExpr(b); q != "" && q != def.Name {
			cd.bases = append(cd.bases, q)
		}
		a.eval(fe, b)
	}
	for _, kw := range def.Keywords {
		a.eval(fe, kw.Value)
	}
	if fe.classes == nil {
		fe.classes = make(map[string]*classDef)
	}
	fe.classes[def.Name] = cd
	// Class bodies execute at definition time: analyze non-def statements,
	// register methods.
	for _, s := range def.Body {
		if m, ok := s.(*pyast.FunctionDef); ok {
			cd.methods[m.Name] = a.registerFunc(fe, m, cd)
			continue
		}
		a.analyzeStmt(fe, s)
	}
}

// ensureAnalyzed analyzes a function body once, creating its parameter
// events and collecting returned values. Recursive cycles are cut by the
// `analyzing` state.
func (a *analyzer) ensureAnalyzed(fd *funcDef) {
	if fd.state != 0 {
		return
	}
	fd.state = 1
	fe := a.newFuncEnv(fd.ctx, fd, fd.outer)
	fe.curClass = fd.class
	for i, p := range fd.def.Params {
		a.bind(fe, p.Name, isParam)
		var objs []*object
		if isReceiverName(p.Name) {
			if fd.class != nil {
				// All methods share the class's receiver so instance
				// state flows across them.
				objs = a.sc.one(a.receiver(fd.class))
			} else {
				objs = a.sc.opaque()
			}
		} else {
			ev := a.g.AddEvent(propgraph.KindParam, a.file, p.NamePos, fd.ctx.ParamEventReps(p.Name))
			fd.paramEvents[i] = ev
			objs = a.sc.one(a.sc.newObject(ev))
		}
		fe.env.set(p.Name, objs)
	}
	a.analyzeBody(fe, fd.def.Body)
	fd.state = 2
}

// isReceiverName reports whether a parameter is a conventional receiver;
// receivers get no source-candidate event (their taint is tracked through
// the object itself).
func isReceiverName(s string) bool { return s == "self" || s == "cls" }

// splitDotted splits a dotted name into its segments.
func (a *analyzer) splitDotted(s string) []string {
	if s == "" {
		return nil
	}
	n := strings.Count(s, ".") + 1
	if strings.HasSuffix(s, ".") {
		n-- // a trailing dot ends the name, it does not start an empty segment
	}
	segs := a.sc.strs.Alloc(n)
	for i := range segs {
		seg, rest, _ := strings.Cut(s, ".")
		segs[i], s = seg, rest
	}
	return segs
}
