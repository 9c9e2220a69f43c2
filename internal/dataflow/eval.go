package dataflow

import (
	"strings"

	"seldon/internal/propgraph"
	"seldon/internal/pyast"
	"seldon/internal/pytoken"
)

// eval abstractly evaluates an expression, returning the set of objects the
// value may be and a symbolic path describing how it was reached (nil for
// shapes representations cannot express).
func (a *analyzer) eval(fe *funcEnv, e pyast.Expr) ([]*object, *sympath) {
	switch x := e.(type) {
	case nil:
		return nil, nil
	case *pyast.Name:
		path := a.rootPath(fe, x.Ident)
		objs := fe.lookupVar(x.Ident)
		if len(objs) == 0 {
			objs = a.sc.opaque()
		}
		return objs, path
	case *pyast.Num, *pyast.Str, *pyast.NameConst, *pyast.EllipsisLit:
		return a.sc.opaque(), nil
	case *pyast.JoinedStr:
		// f-string: information flows from every interpolated expression
		// into the resulting string.
		var out []*object
		for _, v := range x.Values {
			o, _ := a.eval(fe, v)
			out = a.sc.union(out, o)
		}
		if len(out) == 0 {
			out = a.sc.opaque()
		}
		return out, nil

	case *pyast.Attribute:
		base, basePath := a.eval(fe, x.Value)
		return a.evalAttrLoad(fe, base, basePath, x.Attr, x.AttrPos)

	case *pyast.Subscript:
		base, basePath := a.eval(fe, x.Value)
		idxObjs, _ := a.eval(fe, x.Index)
		_ = idxObjs
		path := a.extendLast(basePath, subscriptSuffix(x.Index))
		return a.newReadEvent(fe, base, path, x.Pos(), elemKey)

	case *pyast.Call:
		return a.evalCall(fe, x)

	case *pyast.BinOp:
		// The operands' objects are merged once, not per operator: a chain
		// like 1 + 1 + … nests to the left, and a union per level would copy
		// a set that grows by one each time.
		mark := len(a.sc.operands)
		left := a.binOperands(fe, x)
		out := a.sc.union(left, a.sc.operands[mark:]...)
		clear(a.sc.operands[mark:])
		a.sc.operands = a.sc.operands[:mark]
		return out, nil
	case *pyast.BoolOp:
		var out []*object
		for _, v := range x.Values {
			o, _ := a.eval(fe, v)
			out = a.sc.union(out, o)
		}
		return out, nil
	case *pyast.UnaryOp:
		o, _ := a.eval(fe, x.Operand)
		return o, nil
	case *pyast.Compare:
		a.eval(fe, x.Left)
		for _, c := range x.Comparators {
			a.eval(fe, c)
		}
		return a.sc.opaque(), nil
	case *pyast.IfExp:
		a.eval(fe, x.Cond)
		t, _ := a.eval(fe, x.Then)
		f, _ := a.eval(fe, x.Else)
		return a.sc.union(t, f), nil

	case *pyast.Tuple:
		return a.container(fe, x.Elts), nil
	case *pyast.List:
		return a.container(fe, x.Elts), nil
	case *pyast.Set:
		return a.container(fe, x.Elts), nil
	case *pyast.Dict:
		o, mark := a.sc.newObject(-1), len(a.sc.operands)
		for i := range x.Keys {
			if x.Keys[i] != nil {
				k, _ := a.eval(fe, x.Keys[i])
				a.sc.operands = append(a.sc.operands, k)
			}
			v, _ := a.eval(fe, x.Values[i])
			a.sc.operands = append(a.sc.operands, v)
		}
		o.addPending(a.sc, elemKey, mark)
		return a.sc.one(o), nil

	case *pyast.Comp:
		return a.evalComp(fe, x)
	case *pyast.Lambda:
		// Analyze the body for its own events, with parameters bound to
		// fresh opaque objects; the lambda value itself is opaque.
		sub := fe.env.clone()
		a.withEnv(fe, sub, func() {
			for _, p := range x.Params {
				fe.env.set(p.Name, a.sc.opaque())
			}
			a.eval(fe, x.Body)
		})
		return a.sc.opaque(), nil

	case *pyast.Starred:
		return a.eval(fe, x.Value)
	case *pyast.Await:
		return a.eval(fe, x.Value)
	case *pyast.Yield:
		if x.Value != nil {
			objs, _ := a.eval(fe, x.Value)
			if fe.cur != nil {
				fe.cur.returns = a.sc.union(fe.cur.returns, objs)
			}
		}
		return a.sc.opaque(), nil
	case *pyast.NamedExpr:
		objs, path := a.eval(fe, x.Value)
		a.assignTo(fe, x.Target, objs)
		return objs, path
	case *pyast.Slice:
		a.eval(fe, x.Lo)
		a.eval(fe, x.Hi)
		a.eval(fe, x.Step)
		return a.sc.opaque(), nil
	}
	return a.sc.opaque(), nil
}

// binOperands evaluates the operands of x and of the binary operations
// nested to its left, leftmost first, and returns the leftmost one's
// objects, pushing every right operand's onto sc.operands in order.
func (a *analyzer) binOperands(fe *funcEnv, x *pyast.BinOp) []*object {
	var left []*object
	if l, ok := x.Left.(*pyast.BinOp); ok {
		left = a.binOperands(fe, l)
	} else {
		left, _ = a.eval(fe, x.Left)
	}
	r, _ := a.eval(fe, x.Right)
	a.sc.operands = append(a.sc.operands, r)
	return left
}

// lookupVar resolves a variable through the scope chain.
func (fe *funcEnv) lookupVar(name string) []*object {
	for e := fe; e != nil; e = e.outer {
		if objs := e.env.get(name); len(objs) > 0 {
			return objs
		}
	}
	return nil
}

// container evaluates a tuple, list or set display into one fresh object
// whose elements are every element's objects, merged in one union: a
// union per element would copy a set that grows by one each time.
func (a *analyzer) container(fe *funcEnv, elts []pyast.Expr) []*object {
	o, mark := a.sc.newObject(-1), len(a.sc.operands)
	for _, el := range elts {
		v, _ := a.eval(fe, el)
		a.sc.operands = append(a.sc.operands, v)
	}
	o.addPending(a.sc, elemKey, mark)
	return a.sc.one(o)
}

func (a *analyzer) evalComp(fe *funcEnv, x *pyast.Comp) ([]*object, *sympath) {
	sub := fe.env.clone()
	o := a.sc.newObject(-1)
	a.withEnv(fe, sub, func() {
		for _, c := range x.Clauses {
			iterObjs, _ := a.eval(fe, c.Iter)
			a.assignTo(fe, c.Target, a.elementsOf(iterObjs))
			for _, cond := range c.Ifs {
				a.eval(fe, cond)
			}
		}
		elt, _ := a.eval(fe, x.Elt)
		o.addField(a.sc, elemKey, elt)
		if x.Value != nil {
			v, _ := a.eval(fe, x.Value)
			o.addField(a.sc, elemKey, v)
		}
	})
	return a.sc.one(o), nil
}

// evalAttrLoad handles `base.attr` in load position. Attribute steps on a
// pure module path (e.g. os.path) extend the path without creating an
// event; all other loads are Read events — candidate sources (§5.1).
func (a *analyzer) evalAttrLoad(fe *funcEnv, base []*object, basePath *sympath, attr string, pos pytoken.Pos) ([]*object, *sympath) {
	path := a.extend(basePath, attr)
	if basePath != nil && basePath.pure {
		if path != nil {
			path.pure = true
		}
		return a.sc.opaque(), path
	}
	return a.newReadEvent(fe, base, path, pos, attr)
}

// newReadEvent creates a Read event fed by the base objects and by the
// values previously stored under fieldName in those objects.
func (a *analyzer) newReadEvent(fe *funcEnv, base []*object, path *sympath, pos pytoken.Pos, fieldName string) ([]*object, *sympath) {
	ev := a.g.AddEvent(propgraph.KindRead, a.file, pos, a.reps(path))
	for _, src := range a.sc.collectEvents(base, a.opts.fieldDepth) {
		a.g.AddEdge(src, ev)
	}
	var stored []*object
	for _, o := range base {
		stored = a.sc.union(stored, o.field(fieldName))
	}
	for _, src := range a.sc.collectEvents(stored, a.opts.fieldDepth) {
		a.g.AddEdge(src, ev)
	}
	return a.sc.union(a.sc.one(a.sc.newObject(ev)), stored), path
}

// subscriptSuffix renders the index of a subscript for a path segment:
// literal keys verbatim, anything dynamic as [] (§3.2 examples).
func subscriptSuffix(idx pyast.Expr) string {
	switch k := idx.(type) {
	case *pyast.Str:
		if len(k.Lit) <= 24 && !strings.ContainsAny(k.Lit, ".\n") {
			return "[" + k.Lit + "]"
		}
	case *pyast.Num:
		return "[" + k.Lit + "]"
	}
	return "[]"
}

// ---------------------------------------------------------------------------
// Calls

var localsReps = []string{"locals()"}

func (a *analyzer) evalCall(fe *funcEnv, call *pyast.Call) ([]*object, *sympath) {
	switch f := call.Func.(type) {
	case *pyast.Name:
		// locals() exposes every local variable (§5.2).
		if f.Ident == "locals" && len(call.Args) == 0 {
			ev := a.g.AddEvent(propgraph.KindCall, a.file, call.Pos(), localsReps)
			for _, src := range a.sc.collectEvents(fe.env.allObjects(), a.opts.fieldDepth) {
				a.g.AddEdge(src, ev)
			}
			return a.sc.one(a.sc.newObject(ev)), nil
		}
		// Call of a function defined in this file: link through its
		// summary instead of creating a call event (§5.2 inlining).
		if fd := fe.lookupFunc(f.Ident); fd != nil {
			return a.linkLocalCall(fe, fd, call, nil, false)
		}
		// Instantiation of a locally defined class: link the constructor
		// and return an instance that resolves later method calls.
		if cd := fe.lookupClass(f.Ident); cd != nil {
			inst := a.receiver(cd)
			if init, ok := cd.methods["__init__"]; ok {
				a.linkLocalCall(fe, init, call, a.sc.one(inst), true)
			} else {
				for _, arg := range call.Args {
					objs, _ := a.eval(fe, arg)
					inst.addField(a.sc, elemKey, objs)
				}
				for _, kw := range call.Keywords {
					objs, _ := a.eval(fe, kw.Value)
					inst.addField(a.sc, kw.Name, objs)
				}
			}
			return a.sc.one(inst), nil
		}
		path := a.rootPath(fe, f.Ident)
		// (A call of a bare parameter has no expressible representation:
		// extendLast yields a nil path for it.)
		return a.unknownCall(fe, call, nil, a.extendLast(path, "()"))

	case *pyast.Attribute:
		base, basePath := a.eval(fe, f.Value)
		// self.method() to a method of the current class: summary link.
		if fe.curClass != nil {
			if nm, ok := f.Value.(*pyast.Name); ok && isReceiverName(nm.Ident) {
				if m, ok := fe.curClass.methods[f.Attr]; ok {
					return a.linkLocalCall(fe, m, call, base, true)
				}
			}
		}
		// Method call on an instance of a locally defined class: the
		// target is statically known (not subject to multiple dispatch),
		// so link it (§5.2 inlining).
		for _, o := range base {
			if o.class == nil {
				continue
			}
			if m, ok := o.class.methods[f.Attr]; ok {
				return a.linkLocalCall(fe, m, call, base, true)
			}
		}
		callPath := a.extend(basePath, f.Attr+"()")
		return a.unknownCall(fe, call, base, callPath)

	default:
		base, _ := a.eval(fe, call.Func)
		return a.unknownCall(fe, call, base, nil)
	}
}

// unknownCall creates a Call event; information flows from every argument
// and from the receiver into the event, and the event's value is returned
// (a call propagates information from arguments to its return value, §5.2).
func (a *analyzer) unknownCall(fe *funcEnv, call *pyast.Call, receiver []*object, path *sympath) ([]*object, *sympath) {
	ev := a.g.AddEvent(propgraph.KindCall, a.file, call.Pos(), a.reps(path))
	// Edges are labeled with the argument position the flow enters
	// through, enabling argument-sensitive sink specifications (§3.3's
	// future-work differentiation).
	feedArg := func(objs []*object, argPos int) {
		for _, src := range a.sc.collectEvents(objs, a.opts.fieldDepth) {
			a.g.AddEdgeArg(src, ev, argPos)
		}
	}
	feedAny := func(objs []*object) {
		for _, src := range a.sc.collectEvents(objs, a.opts.fieldDepth) {
			a.g.AddEdge(src, ev)
		}
	}
	feedArg(receiver, propgraph.ArgReceiver)
	// Arguments flow INTO the call event only; the result carries the
	// event itself, never the argument objects directly — otherwise flows
	// through sanitizing calls would bypass the sanitizer vertex.
	result := a.sc.one(a.sc.newObject(ev))
	for i, arg := range call.Args {
		objs, _ := a.eval(fe, arg)
		if _, starred := arg.(*pyast.Starred); starred {
			// The landing position of *args is unknown: leave unlabeled.
			feedAny(objs)
			continue
		}
		feedArg(objs, i)
	}
	for _, kw := range call.Keywords {
		objs, _ := a.eval(fe, kw.Value)
		feedArg(objs, propgraph.ArgKeyword)
	}
	return result, path
}

// linkLocalCall wires a call to a function defined in this file: argument
// events flow into the callee's parameter events and the callee's returned
// objects become the call's value. No Call event is created — the callee
// body is statically known, so its own events carry the flow.
func (a *analyzer) linkLocalCall(fe *funcEnv, fd *funcDef, call *pyast.Call, receiver []*object, method bool) ([]*object, *sympath) {
	a.ensureAnalyzed(fd)
	params := fd.paramOrder
	if method && len(params) > 0 && isReceiverName(params[0]) {
		params = params[1:]
	}
	bindTo := func(i int, objs []*object) {
		if i < 0 || i >= len(params) {
			return
		}
		if evID, ok := fd.paramEvent(params[i]); ok {
			for _, src := range a.sc.collectEvents(objs, a.opts.fieldDepth) {
				a.g.AddEdge(src, evID)
			}
		}
	}
	for i, arg := range call.Args {
		objs, _ := a.eval(fe, arg)
		bindTo(i, objs)
	}
	for _, kw := range call.Keywords {
		objs, _ := a.eval(fe, kw.Value)
		for i, p := range params {
			if p == kw.Name {
				bindTo(i, objs)
			}
		}
	}
	_ = receiver
	result := fd.returns
	if len(result) == 0 {
		result = a.sc.opaque()
	}
	return result, nil
}
