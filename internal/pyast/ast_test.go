package pyast

import (
	"testing"

	"seldon/internal/pytoken"
)

func name(s string) *Name { return &Name{Ident: s, NamePos: pytoken.Pos{Line: 1}} }

func TestInspectVisitsAllNodes(t *testing.T) {
	mod := &Module{File: "t.py", Body: []Stmt{
		&FunctionDef{
			Name:   "f",
			Params: []*Param{{Name: "a", Default: name("d")}},
			Body: []Stmt{
				&If{
					Cond: &Compare{Left: name("a"), Ops: []CompareOp{{Kind: pytoken.LT}},
						Comparators: []Expr{&Num{Lit: "1"}}},
					Body: []Stmt{&Return{Value: &Call{Func: name("g"), Args: []Expr{name("a")}}}},
					Else: []Stmt{&ExprStmt{Value: &Yield{Value: name("a")}}},
				},
			},
		},
		&ClassDef{Name: "C", Bases: []Expr{name("B")},
			Body: []Stmt{&Pass{}}},
		&Assign{Targets: []Expr{name("x")}, Value: &Dict{
			Keys: []Expr{&Str{Lit: "'k'"}}, Values: []Expr{name("v")}}},
		&For{Target: name("i"), Iter: name("xs"),
			Body: []Stmt{&AugAssign{Target: name("s"), Op: pytoken.PLUSEQ, Value: name("i")}}},
		&Try{Body: []Stmt{&Raise{Exc: name("E")}},
			Handlers: []*ExceptHandler{{Type: name("E"), Name: "e",
				Body: []Stmt{&Pass{}}}},
			Finally: []Stmt{&Delete{Targets: []Expr{name("x")}}}},
		&With{Items: []*WithItem{{Context: &Call{Func: name("open")}, Vars: name("fh")}},
			Body: []Stmt{&Global{Names: []string{"g"}}}},
		&Import{Names: []*Alias{{Name: "os"}}},
		&While{Cond: name("c"), Body: []Stmt{&Break{}}, Else: []Stmt{&Continue{}}},
	}}

	counts := map[string]int{}
	Inspect(mod, func(n Node) bool {
		switch n.(type) {
		case *Name:
			counts["name"]++
		case *Call:
			counts["call"]++
		case *FunctionDef:
			counts["func"]++
		case *ClassDef:
			counts["class"]++
		case *Dict:
			counts["dict"]++
		}
		return true
	})
	if counts["func"] != 1 || counts["class"] != 1 || counts["dict"] != 1 {
		t.Errorf("counts = %v", counts)
	}
	if counts["call"] != 2 {
		t.Errorf("calls = %d, want 2", counts["call"])
	}
	if counts["name"] < 12 {
		t.Errorf("names = %d, want >= 12", counts["name"])
	}
}

func TestInspectPruning(t *testing.T) {
	mod := &Module{Body: []Stmt{
		&FunctionDef{Name: "f", Body: []Stmt{
			&ExprStmt{Value: &Call{Func: name("inner")}},
		}},
		&ExprStmt{Value: &Call{Func: name("outer")}},
	}}
	calls := 0
	Inspect(mod, func(n Node) bool {
		if _, ok := n.(*FunctionDef); ok {
			return false // skip function bodies
		}
		if _, ok := n.(*Call); ok {
			calls++
		}
		return true
	})
	if calls != 1 {
		t.Errorf("calls seen = %d, want 1 (inner pruned)", calls)
	}
}

func TestPositions(t *testing.T) {
	p := pytoken.Pos{Line: 3, Col: 7}
	nodes := []Node{
		&FunctionDef{DefPos: p},
		&ClassDef{ClassPos: p},
		&Return{ReturnPos: p},
		&If{IfPos: p},
		&While{WhilePos: p},
		&For{ForPos: p},
		&With{WithPos: p},
		&Try{TryPos: p},
		&Import{ImportPos: p},
		&Name{NamePos: p},
		&Num{NumPos: p},
		&Str{StrPos: p},
		&Lambda{LambdaPos: p},
		&Tuple{TuplePos: p},
		&Pass{PassPos: p},
	}
	for _, n := range nodes {
		if n.Pos() != p {
			t.Errorf("%T.Pos() = %v, want %v", n, n.Pos(), p)
		}
	}
	// Derived positions.
	attr := &Attribute{Value: &Name{NamePos: p, Ident: "a"}, Attr: "b"}
	if attr.Pos() != p {
		t.Errorf("attribute pos = %v", attr.Pos())
	}
	empty := &Module{}
	if empty.Pos().Line != 1 {
		t.Errorf("empty module pos = %v", empty.Pos())
	}
}

func TestMorePositions(t *testing.T) {
	p := pytoken.Pos{Line: 9, Col: 1}
	nodes := []Node{
		&Delete{DelPos: p},
		&Raise{RaisePos: p},
		&Assert{AssertPos: p},
		&ImportFrom{FromPos: p},
		&Global{GlobalPos: p},
		&Nonlocal{NonlocalPos: p},
		&Break{BreakPos: p},
		&Continue{ContinuePos: p},
		&NameConst{ConstPos: p},
		&EllipsisLit{DotsPos: p},
		&Set{SetPos: p},
		&List{ListPos: p},
		&Dict{DictPos: p},
		&Comp{CompPos: p},
		&Starred{StarPos: p},
		&Await{AwaitPos: p},
		&Yield{YieldPos: p},
		&UnaryOp{OpPos: p},
		&Slice{ColonPos: p},
		&JoinedStr{StrPos: p},
		&Param{NamePos: p},
	}
	for _, n := range nodes {
		if n.Pos() != p {
			t.Errorf("%T.Pos() = %v", n, n.Pos())
		}
	}
	// Derived positions.
	if (&Assign{Targets: []Expr{&Name{NamePos: p}}}).Pos() != p {
		t.Error("assign pos")
	}
	if (&AugAssign{Target: &Name{NamePos: p}}).Pos() != p {
		t.Error("augassign pos")
	}
	if (&AnnAssign{Target: &Name{NamePos: p}}).Pos() != p {
		t.Error("annassign pos")
	}
	if (&ExprStmt{Value: &Name{NamePos: p}}).Pos() != p {
		t.Error("exprstmt pos")
	}
	if (&Return{ReturnPos: p}).Pos() != p {
		t.Error("return pos")
	}
	if (&Subscript{Value: &Name{NamePos: p}}).Pos() != p {
		t.Error("subscript pos")
	}
	if (&Call{Func: &Name{NamePos: p}}).Pos() != p {
		t.Error("call pos")
	}
	if (&BinOp{Left: &Name{NamePos: p}}).Pos() != p {
		t.Error("binop pos")
	}
	if (&BoolOp{Values: []Expr{&Name{NamePos: p}}}).Pos() != p {
		t.Error("boolop pos")
	}
	if (&Compare{Left: &Name{NamePos: p}}).Pos() != p {
		t.Error("compare pos")
	}
	if (&IfExp{Then: &Name{NamePos: p}}).Pos() != p {
		t.Error("ifexp pos")
	}
	if (&NamedExpr{Target: &Name{NamePos: p}}).Pos() != p {
		t.Error("namedexpr pos")
	}
}
