package pyparse

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"seldon/internal/pyast"
	"seldon/internal/pytoken"
)

// TestPrecedenceMatchesCPython parses every expression of
// testdata/precedence.golden — each ordered pair of the binary,
// comparison and boolean operators, the prefix operators mixed with
// them, and conditional and assignment expressions around each level —
// and requires the tree CPython 3.11 built for it, node columns
// included. testdata/precedence.py records the file.
func TestPrecedenceMatchesCPython(t *testing.T) {
	data, err := os.ReadFile("testdata/precedence.golden")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) < 1000 {
		t.Fatalf("%d expressions in the golden, want over 1000", len(lines))
	}
	failed := 0
	for _, line := range lines {
		src, want, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		got, err := dumpExpr(src)
		if err != nil || got != want {
			if failed++; failed <= 10 {
				t.Errorf("%s\n got  %s (error %v)\n want %s", src, got, err, want)
			}
		}
	}
	if failed > 0 {
		t.Errorf("%d of %d expressions differ from CPython", failed, len(lines))
	}
}

// dumpExpr parses src, one expression statement or an assignment of one,
// and prints its expression the way precedence.py prints CPython's.
func dumpExpr(src string) (string, error) {
	mod, err := Parse("prec.py", src+"\n")
	if err != nil {
		return "", err
	}
	if len(mod.Body) != 1 {
		return "", fmt.Errorf("%d statements", len(mod.Body))
	}
	var b strings.Builder
	switch st := mod.Body[0].(type) {
	case *pyast.ExprStmt:
		dumpTree(&b, st.Value)
	case *pyast.Assign:
		dumpTree(&b, st.Value)
	default:
		return "", fmt.Errorf("statement %T", st)
	}
	return b.String(), nil
}

func dumpTree(b *strings.Builder, e pyast.Expr) {
	open := func(head string) { fmt.Fprintf(b, "(%s@%d", head, e.Pos().Col) }
	args := func(es ...pyast.Expr) {
		for _, x := range es {
			b.WriteByte(' ')
			dumpTree(b, x)
		}
		b.WriteByte(')')
	}
	switch x := e.(type) {
	case *pyast.Name:
		fmt.Fprintf(b, "%s@%d", x.Ident, x.NamePos.Col)
	case *pyast.BinOp:
		open(x.Op.String())
		args(x.Left, x.Right)
	case *pyast.UnaryOp:
		open(x.Op.String())
		args(x.Operand)
	case *pyast.BoolOp:
		open(x.Op.String())
		args(x.Values...)
	case *pyast.Compare:
		open("cmp")
		b.WriteByte(' ')
		dumpTree(b, x.Left)
		for i, op := range x.Ops {
			spelling := op.Kind.String()
			switch {
			case op.Not && op.Kind == pytoken.KwIn:
				spelling = "not in"
			case op.Not:
				spelling = "is not"
			}
			fmt.Fprintf(b, " %s ", spelling)
			dumpTree(b, x.Comparators[i])
		}
		b.WriteByte(')')
	case *pyast.IfExp:
		open("if")
		args(x.Cond, x.Then, x.Else)
	case *pyast.NamedExpr:
		open(":=")
		args(x.Target, x.Value)
	case *pyast.Await:
		open("await")
		args(x.Value)
	case *pyast.Lambda:
		open("lambda")
		args(x.Body)
	default:
		fmt.Fprintf(b, "<%T>", e)
	}
}
