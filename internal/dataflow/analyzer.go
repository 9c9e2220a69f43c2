package dataflow

import (
	"strings"

	"seldon/internal/obs"
	"seldon/internal/propgraph"
	"seldon/internal/pyast"
	"seldon/internal/pyparse"
)

// Options configures the analyzer.
type Options struct {
	// maxPathSegments caps the length of symbolic paths used to build
	// event representations; longer chains keep flowing but stop
	// producing representations. Default 8 (the paper's context bound).
	// fieldDepth bounds how deep field maps are traversed when
	// collecting the events carried by an abstract value. Default 3.
	// Both change the graph an analysis produces and neither is part of
	// fpcache.Key or AnalyzerVersion, so only this package's tests set
	// them: a new default is a new AnalyzerVersion.
	maxPathSegments, fieldDepth int
	// Metrics, when non-nil, receives per-module analysis counters
	// (modules, functions, graph events).
	Metrics *obs.Registry
	// Scratch, when non-nil, is where the analysis allocates its working
	// state (see Scratch), recycled from the previous module instead of
	// allocated afresh. Not safe for concurrent use; the produced graph
	// never aliases the scratch and is identical with or without one.
	Scratch *Scratch
}

func (o Options) withDefaults() Options {
	if o.maxPathSegments == 0 {
		o.maxPathSegments = 8
	}
	if o.fieldDepth == 0 {
		o.fieldDepth = 3
	}
	return o
}

// AnalyzeSource parses src and builds its propagation graph. Parse errors
// do not abort the analysis: the graph of the recovered AST is returned
// together with the error.
func AnalyzeSource(file, src string) (*propgraph.Graph, error) {
	mod, err := pyparse.Parse(file, src)
	return AnalyzeModule(mod, Options{}), err
}

// AnalyzeModule builds the propagation graph of a parsed module.
func AnalyzeModule(mod *pyast.Module, opts Options) *propgraph.Graph {
	sc := opts.Scratch
	if sc == nil {
		sc = new(Scratch)
	} else {
		sc.Reset()
	}
	if sc.imports == nil {
		sc.imports = make(map[string][]string)
	}
	a := &analyzer{
		g:    &sc.graph,
		file: mod.File,
		opts: opts.withDefaults(),
		sc:   sc,
	}
	root := a.newFuncEnv(propgraph.RepContext{}, nil, nil)
	a.analyzeBody(root, mod.Body)
	// Analyze the functions registered so far that were never called
	// (the ones this registers in turn are analyzed only if called).
	for i, n := 0, len(sc.order); i < n; i++ {
		a.ensureAnalyzed(sc.order[i])
	}
	a.opts.Metrics.Add(obs.CounterDataflowModules, 1)
	a.opts.Metrics.Add(obs.CounterDataflowFunctions, int64(len(sc.order)))
	a.opts.Metrics.Add(obs.CounterDataflowGraphEvents, int64(a.g.Len()))
	return a.g.Build()
}

type analyzer struct {
	g    *propgraph.Builder // the scratch's
	file string
	opts Options
	sc   *Scratch // every allocation but the graph; never nil
}

// funcDef is a locally defined function (module-level, nested, or method)
// together with its analysis summary.
type funcDef struct {
	def *pyast.FunctionDef
	ctx propgraph.RepContext
	// paramOrder lists the parameter names; paramEvents is aligned with it
	// and holds each parameter's event ID, or -1 (receivers have none).
	paramOrder  []string
	paramEvents []int
	returns     []*object
	state       int // 0 = pending, 1 = analyzing, 2 = done
	outer       *funcEnv
	class       *classDef // receiver class for methods, or nil
}

// paramEvent returns the event of the parameter called name: with a
// duplicated name, the last one's.
func (fd *funcDef) paramEvent(name string) (int, bool) {
	for i := len(fd.paramOrder) - 1; i >= 0; i-- {
		if fd.paramOrder[i] == name && fd.paramEvents[i] >= 0 {
			return fd.paramEvents[i], true
		}
	}
	return 0, false
}

// classDef records a locally defined class and its methods. The shared
// receiver object lets `self.field` stores in one method flow to reads in
// another (a context-insensitive over-approximation of instance state).
type classDef struct {
	name    string
	bases   []string // qualified
	methods map[string]*funcDef
	self    *object
}

// receiver returns the class's shared self object, creating it on demand.
func (a *analyzer) receiver(cd *classDef) *object {
	if cd.self == nil {
		cd.self = a.sc.newObject(-1)
		cd.self.class = cd
	}
	return cd.self
}

// Name-binding flags of a scope.
const (
	isParam      uint8 = 1 << iota // a formal parameter of the scope's function
	isReassigned                   // assigned somewhere in the scope
)

// funcEnv is the per-scope analysis state. Its maps are created on first
// write.
type funcEnv struct {
	env      *env
	ctx      propgraph.RepContext
	bound    map[string]uint8     // isParam | isReassigned per name
	locals   map[string]*funcDef  // nested defs visible in this scope
	classes  map[string]*classDef // visible local classes
	cur      *funcDef             // function being analyzed (returns sink)
	curClass *classDef
	outer    *funcEnv
}

func (a *analyzer) newFuncEnv(ctx propgraph.RepContext, cur *funcDef, outer *funcEnv) *funcEnv {
	fe := a.sc.funcEnvs.New()
	*fe = funcEnv{env: a.sc.newEnv(), ctx: ctx, cur: cur, outer: outer}
	return fe
}

// bind records that name is a parameter of, or reassigned in, the scope.
func (a *analyzer) bind(fe *funcEnv, name string, flag uint8) {
	if fe.bound == nil {
		fe.bound = a.sc.bound.get()
	}
	fe.bound[name] |= flag
}

// lookupFunc resolves a locally defined function by name through the scope
// chain.
func (fe *funcEnv) lookupFunc(name string) *funcDef {
	for e := fe; e != nil; e = e.outer {
		if fd, ok := e.locals[name]; ok {
			return fd
		}
		if e.bound[name] != 0 {
			return nil // shadowed by a binding we cannot resolve
		}
	}
	return nil
}

func (fe *funcEnv) lookupClass(name string) *classDef {
	for e := fe; e != nil; e = e.outer {
		if cd, ok := e.classes[name]; ok {
			return cd
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Symbolic paths

// sympath is a symbolic description of how a value was reached; it drives
// representation building. Either param is set (value rooted at a formal
// parameter of the function whose context ctx points at) or segs[0] is
// the (possibly import-qualified) root. A sympath and its segs are
// immutable once built, so paths share segment runs freely.
type sympath struct {
	param string
	ctx   *propgraph.RepContext
	segs  []string
	pure  bool // import-rooted chain of plain names (a module path)
}

// reps builds the representations of an event reached by p, most to
// least specific. The result is valid until the next call.
func (a *analyzer) reps(p *sympath) []string {
	if p == nil {
		return nil
	}
	if p.param != "" {
		return p.ctx.ParamRootedReps(p.param, p.segs)
	}
	a.sc.reps = propgraph.AppendSuffixReps(a.sc.reps[:0], p.segs)
	return a.sc.reps
}

// extend returns a copy of p with one more segment, or nil when the path
// exceeds the cap or p is nil.
func (a *analyzer) extend(p *sympath, seg string) *sympath {
	if p == nil {
		return nil
	}
	if len(p.segs)+1 > a.opts.maxPathSegments {
		return nil
	}
	segs := a.sc.strs.Alloc(len(p.segs) + 1)
	segs[copy(segs, p.segs)] = seg
	return a.sc.newPath(p.param, p.ctx, segs, false)
}

// extendLast returns a copy of p with suffix appended to its final
// segment (used for `seg` -> `seg()` and subscript suffixes), or nil when
// p is nil or a bare parameter: the suffix would apply to the parameter
// position, which representations cannot express.
func (a *analyzer) extendLast(p *sympath, suffix string) *sympath {
	if p == nil || len(p.segs) == 0 {
		return nil
	}
	segs := a.sc.strs.Copy(p.segs)
	segs[len(segs)-1] += suffix
	return a.sc.newPath(p.param, p.ctx, segs, false)
}

// rootPath resolves the symbolic root for a bare name: enclosing-function
// parameter, the symbolic path of the variable's defining expression,
// import alias, or plain variable name.
func (a *analyzer) rootPath(fe *funcEnv, name string) *sympath {
	if fe.bound[name] == isParam {
		return a.sc.newPath(name, &fe.ctx, nil, false)
	}
	for e := fe; e != nil; e = e.outer {
		if p := e.env.path(name); p != nil {
			return p
		}
	}
	if segs, ok := a.sc.imports[name]; ok && !fe.isBound(name) {
		return a.sc.newPath("", nil, segs, true)
	}
	segs := a.sc.strs.Alloc(1)
	segs[0] = name
	return a.sc.newPath("", nil, segs, false)
}

func (fe *funcEnv) isBound(name string) bool {
	for e := fe; e != nil; e = e.outer {
		if e.bound[name] != 0 {
			return true
		}
	}
	return false
}

// qualifyExpr renders an expression as a dotted name with import aliases
// expanded; used for base-class names. Returns "" for non-dotted shapes.
func (a *analyzer) qualifyExpr(e pyast.Expr) string {
	switch x := e.(type) {
	case *pyast.Name:
		if segs, ok := a.sc.imports[x.Ident]; ok {
			return strings.Join(segs, ".")
		}
		return x.Ident
	case *pyast.Attribute:
		base := a.qualifyExpr(x.Value)
		if base == "" {
			return ""
		}
		return base + "." + x.Attr
	}
	return ""
}
