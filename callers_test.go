package seldon_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Product code has a product caller: every package-level func, method,
// type, var and const declared in non-test Go under internal/ or cmd/ must
// be used by non-test Go under internal/ or cmd/ that the product reaches
// — from main, init, a package-level var's initialiser or a method that
// satisfies an interface the program uses — so declarations that only
// use each other do not keep each other. Code that only tests reach
// belongs in the _test.go file of the test that needs it, and code that
// nothing reaches is deleted. Struct fields and interface methods are out
// of scope: json tags, positional literals and the interfaces themselves
// keep them alive in ways a use count does not see.
//
// What may stay without a product caller is listed below, one line of
// reason each; what an entry reaches is not reported either. An entry
// that gains a product user or stops naming a declaration fails the test
// too, so the lists only shrink.

// benchOnly is what only bench/ (and tests) reach. It is the pin list of
// ROADMAP item 16: a change that re-bases bench/ on the pipeline's one
// entry point empties it.
var benchOnly = map[string]string{
	"incr.Session.Splice":          "bench/relearn.go primes its session with the front end's graphs",
	"incr.Session.Result":          "bench/relearn.go reads the primed and the warm learn's results",
	"incr.Session.EncodedGraph":    "bench/relearn.go hashes each file's encoding for the primed state",
	"incr.Session.SpliceSource":    "bench/relearn.go applies its six-file edit",
	"lp.Problem.Objective":         "bench/relearn.go compares the warm and the cold solve's objective",
	"eval.SamplePrecision":         "bench/stages.go reports eval.spec_precision and the per-role precisions",
	"eval.MeasureRecall":           "bench/stages.go reports eval.spec_recall",
	"eval.RolePrecision.Precision": "bench/stages.go reports eval.precision_{source,sanitizer,sink}",
	"eval.PrecisionReport.Overall": "bench/stages.go reports eval.spec_precision",
	"eval.Recall.Fraction":         "bench/stages.go reports eval.spec_recall",
	"fpcache.Cache.Stats":          "bench/ingest.go reports the ingest cache's put and get figures",
	"corpus.LearnableReps":         "bench/stages.go measures recall against them",
	"pyast.Inspect":                "bench/stages.go counts pyparse.nodes by walking each module",
	"shard.BuildFromCorpus":        "bench/ingest.go builds its worker artifacts in process",
}

// testSupport is what two or more test packages share and cannot inline,
// with the packages that share it.
var testSupport = map[string]string{
	"core.Scratch.Retained":             "core and service bound a scratch's retained bytes; the fields are core's",
	"core.Result.PredictedCounts":       "core and experiments (Table 5's predicted counts)",
	"corpus.Corpus.Projects":            "corpus and experiments (the small and large apps, Q5's projects)",
	"corpus.Corpus.ProjectFiles":        "corpus and experiments (the small and large apps, Q5's projects)",
	"corpus.ArgSensitiveSeed":           "cmd/seldon's learn test and experiments (§3.3's argument-sensitive seed)",
	"dataflow.AnalyzeSource":            "nine test packages and README's Library tour analyze one source",
	"dataflow.Scratch.Poison":           "dataflow and core (through core's export_test) poison a scratch",
	"pyparse.Scratch.Poison":            "pyparse and core (through core's export_test) poison a scratch",
	"eval.ClassifySample":               "eval, experiments (Tables 6 and 7) and the root integration test",
	"fpcache.Key":                       "fpcache and envelope name an entry file by it",
	"incr.Session.Score":                "incr and service read a variable's score after a re-learn",
	"propgraph.Graph.ForwardReachable":  "propgraph, dataflow, pointsto and experiments check flows",
	"propgraph.Graph.BackwardReachable": "propgraph and experiments check flows",
	"service.CheckResponse":             "service and the root serving test decode /v1/check into it",
}

func TestProductCodeHasProductCaller(t *testing.T) {
	problems, err := productCallers(".", benchOnly, testSupport)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestProductCallersGate runs the gate on a fixture module that holds one
// of each thing it must report and one of each thing it must not.
func TestProductCallersGate(t *testing.T) {
	allow := map[string]string{
		"lib.Gained":   "the fixture's stale entry: cmd/app calls it",
		"lib.Vanished": "the fixture's entry for a declaration that does not exist",
		"lib.Total":    "",
	}
	got, err := productCallers(filepath.Join("testdata", "callers"), allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"allow-list entry lib.Gained has a product user at cmd/app/main.go:12",
		"allow-list entry lib.Total gives no reason",
		"allow-list entry lib.Vanished names no declaration",
		"internal/lib/lib.go:31: lib.UnusedExported has no product caller",
		"internal/lib/lib.go:33: lib.unusedUnexported has no product caller",
		"internal/lib/lib.go:36: lib.OnlyTested has no product caller",
		"internal/lib/lib.go:39: lib.countdown has no product caller",
		"internal/lib/lib.go:47: lib.even has no product caller",
		"internal/lib/lib.go:54: lib.odd has no product caller",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("gate on the fixture reported\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// productCallers type-checks every non-test package under root's internal/
// and cmd/ and returns, sorted, one line per declaration with no product
// caller that allow does not name, and one per allow entry that names a
// used or missing declaration. A declaration is named by its directory's
// last element, the receiver's type for a method, and its own name:
// "incr.Session.Splice".
func productCallers(root string, allow ...map[string]string) ([]string, error) {
	l, err := loadModule(root)
	if err != nil {
		return nil, err
	}
	for _, p := range l.pkgs {
		if _, err := l.check(p); err != nil {
			return nil, err
		}
	}

	// Declarations by their position, so that a use of a generic's
	// instance finds the generic, with the span their own uses fall in.
	// A func or type is its own span; the names of a const or var spec
	// each reach the spec, which holds the uses in its type and values.
	// main, init, the blank identifier and a var's initialiser, which runs
	// at start-up, are roots and never reported.
	decls := map[token.Position]*decl{}
	byName := map[string]*decl{}
	var spans []*decl                  // the spans, in position order
	roots := []*decl{{}}               // the first stands for what no span holds
	receivers := map[*ast.Ident]bool{} // the idents of methods' receivers
	add := func(p *pkg, id *ast.Ident, recv string, d *decl) {
		obj := l.info.Defs[id]
		if obj == nil || id.Name == "_" || id.Name == "init" || (id.Name == "main" && recv == "" && p.types.Name() == "main") {
			roots = append(roots, d)
			return
		}
		d.name, d.obj = filepath.Base(p.dir)+"."+id.Name, obj
		if recv != "" {
			d.name = filepath.Base(p.dir) + "." + recv + "." + id.Name
		}
		decls[l.fset.Position(obj.Pos())] = d
		byName[d.name] = d
	}
	span := func(from, end token.Pos) *decl {
		d := &decl{from: from, end: end}
		spans = append(spans, d)
		return d
	}
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					recv := ""
					if d.Recv != nil {
						recv = receiverName(d.Recv.List[0].Type)
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								receivers[id] = true
							}
							return true
						})
					}
					add(p, d.Name, recv, span(d.Pos(), d.End()))
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(p, s.Name, "", span(s.Pos(), s.End()))
						case *ast.ValueSpec:
							sp := span(s.Pos(), s.End())
							if d.Tok == token.VAR && len(s.Values) > 0 {
								roots = append(roots, sp)
							}
							for _, id := range s.Names {
								add(p, id, "", &decl{from: sp.from, end: sp.end, uses: []edge{{to: sp}}})
							}
						}
					}
				}
			}
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].from < spans[j].from })
	within := func(pos token.Pos) *decl {
		i := sort.Search(len(spans), func(i int) bool { return spans[i].from > pos }) - 1
		if i >= 0 && pos < spans[i].end {
			return spans[i]
		}
		return nil
	}

	// Uses. A use inside the declaration's own span, or in a method's
	// receiver (which names the type the method is declared on), does not
	// count.
	ifaces := map[*types.Interface]bool{}
	seen := map[types.Type]bool{}
	for id, obj := range l.info.Uses {
		collectInterfaces(obj.Type(), ifaces, seen)
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin() // an instance's method is its generic's
		}
		d := decls[l.fset.Position(obj.Pos())]
		if d == nil || (d.from <= id.Pos() && id.Pos() < d.end) || receivers[id] {
			continue
		}
		from := within(id.Pos())
		if from == nil {
			from = roots[0]
		}
		from.uses = append(from.uses, edge{d, id.Pos()})
	}
	for _, tv := range l.info.Types {
		collectInterfaces(tv.Type, ifaces, seen)
	}
	// fmt calls String on the operands it is handed as any.
	fmtPkg, err := l.std.Import("fmt")
	if err != nil {
		return nil, err
	}
	collectInterfaces(fmtPkg.Scope().Lookup("Stringer").Type(), ifaces, seen)

	// A method that satisfies an interface the program uses is a root: the
	// call goes through the interface's method, and its type is its use.
	for _, d := range decls {
		fn, ok := d.obj.(*types.Func)
		if !ok {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			continue
		}
		for it := range ifaces {
			if hasMethod(it, fn) && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				roots, d.used = append(roots, d), named.Obj().Pos()
				break
			}
		}
	}

	// Reach from the product's roots, counting the uses on the way, then
	// from the allow-list entries too: what only an entry reaches is
	// neither reported nor a product use.
	var walk func(d *decl, product bool)
	walk = func(d *decl, product bool) {
		if d.reached {
			return
		}
		d.reached = true
		for _, e := range d.uses {
			if product && (e.to.used == token.NoPos || e.at < e.to.used) {
				e.to.used = e.at
			}
			walk(e.to, product)
		}
	}
	for _, d := range roots {
		walk(d, true)
	}
	for _, d := range decls {
		if allowed(allow, d.name) {
			walk(d, false)
		}
	}

	var problems []problem
	for _, d := range decls {
		if !d.reached && !allowed(allow, d.name) {
			pos := l.fset.Position(d.obj.Pos())
			problems = append(problems, problem{pos, fmt.Sprintf("%s: %s has no product caller", l.rel(pos), d.name)})
		}
	}
	for _, a := range allow {
		for name, reason := range a {
			switch d := byName[name]; {
			case strings.TrimSpace(reason) == "":
				problems = append(problems, problem{msg: "allow-list entry " + name + " gives no reason"})
			case d == nil:
				problems = append(problems, problem{msg: "allow-list entry " + name + " names no declaration"})
			case d.used != token.NoPos:
				problems = append(problems, problem{msg: fmt.Sprintf("allow-list entry %s has a product user at %s", name, l.rel(l.fset.Position(d.used)))})
			}
		}
	}
	sort.Slice(problems, func(i, j int) bool {
		a, b := problems[i], problems[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		return a.msg < b.msg
	})
	out := make([]string, len(problems))
	for i, p := range problems {
		out[i] = p.msg
	}
	return out, nil
}

// A decl is a package-level declaration the gate reports, or a span
// whose uses it follows: a const or var spec, or a root's.
type decl struct {
	name      string
	obj       types.Object
	from, end token.Pos
	uses      []edge    // what its span uses
	used      token.Pos // the first use from a declaration a product root reaches
	reached   bool      // a root, an allow-list entry or what they use reaches it
}

// An edge is a use, at a position, of a declaration.
type edge struct {
	to *decl
	at token.Pos
}

type problem struct {
	pos token.Position
	msg string
}

func allowed(allow []map[string]string, name string) bool {
	for _, a := range allow {
		if _, ok := a[name]; ok {
			return true
		}
	}
	return false
}

// receiverName is the base type's name of a method receiver: T for T,
// *T, T[E] and *T[E].
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

func hasMethod(it *types.Interface, fn *types.Func) bool {
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		if m.Name() == fn.Name() && (m.Exported() || m.Pkg() == fn.Pkg()) {
			return true
		}
	}
	return false
}

// collectInterfaces adds every interface t names or holds in a signature,
// pointer, container or channel: the interfaces a value of the program
// can be passed as.
func collectInterfaces(t types.Type, into map[*types.Interface]bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			into[it] = true
		}
	case *types.Interface:
		if t.NumMethods() > 0 {
			into[t] = true
		}
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				collectInterfaces(tup.At(i).Type(), into, seen)
			}
		}
	case *types.Pointer:
		collectInterfaces(t.Elem(), into, seen)
	case *types.Slice:
		collectInterfaces(t.Elem(), into, seen)
	case *types.Array:
		collectInterfaces(t.Elem(), into, seen)
	case *types.Map:
		collectInterfaces(t.Key(), into, seen)
		collectInterfaces(t.Elem(), into, seen)
	case *types.Chan:
		collectInterfaces(t.Elem(), into, seen)
	}
}

// loader type-checks a module's non-test packages from source, each once,
// into one types.Info; the standard library comes from the source importer.
type loader struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	pkgs         map[string]*pkg // by import path
	info         *types.Info
}

type pkg struct {
	path, dir string
	files     []*ast.File
	types     *types.Package
}

func loadModule(root string) (*loader, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := ""
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			module = f[1]
		}
	}
	if module == "" {
		return nil, fmt.Errorf("%s/go.mod names no module", root)
	}
	// The standard library is read without cgo, so that its pure-Go files
	// stand in for the ones the source importer would have to run cgo on.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &loader{
		root: root, module: module, fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*pkg{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	for _, top := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(dir string, e os.DirEntry, err error) error {
			if err != nil || !e.IsDir() {
				return err
			}
			if n := e.Name(); n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
				return filepath.SkipDir
			}
			return l.parseDir(dir)
		})
		if err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	return l, nil
}

func (l *loader) parseDir(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	p := &pkg{dir: dir}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		p.files = append(p.files, f)
	}
	if len(p.files) == 0 {
		return nil
	}
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return err
	}
	p.path = l.module + "/" + filepath.ToSlash(rel)
	l.pkgs[p.path] = p
	return nil
}

// Import is the module's packages from l, anything else from the source
// importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return l.check(p)
	}
	return l.std.Import(path)
}

func (l *loader) check(p *pkg) (*types.Package, error) {
	if p.types != nil {
		return p.types, nil
	}
	conf := types.Config{Importer: l}
	t, err := conf.Check(p.path, l.fset, p.files, l.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", p.path, err)
	}
	p.types = t
	return t, nil
}

// rel is pos as file:line, the file relative to the module's root.
func (l *loader) rel(pos token.Position) string {
	name, err := filepath.Rel(l.root, pos.Filename)
	if err != nil {
		name = pos.Filename
	}
	return fmt.Sprintf("%s:%d", filepath.ToSlash(name), pos.Line)
}
