package pyparse

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"seldon/internal/pyast"
	"seldon/internal/pytoken"
)

// FuzzParse feeds arbitrary bytes to Parse as a source file. It must not
// panic, and the budgets that bound its recursion must hold: the token
// stream never has more than 200 brackets open, and no path through a
// statement that parsed crosses more than maxDepth of the edges nest
// counts. When the whole input parses, every expression statement must
// survive a round trip through Unparse: the text Unparse gives parses to
// one expression statement that Unparse prints the same way again.
//
// The seeds are core's front-end fuzz seeds, the hostile and left-nested
// bodies just past the budgets, and every expression of
// testdata/precedence.golden.
func FuzzParse(f *testing.F) {
	seeds, err := filepath.Glob("../core/testdata/fuzz/FuzzFrontEndScratchEquivalence/*")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("core's fuzz seeds: %d files, error %v", len(seeds), err)
	}
	for _, path := range seeds {
		f.Add(readSeed(f, path))
	}
	for _, src := range []string{
		"x = " + strings.Repeat("(", 201) + "1" + strings.Repeat(")", 201) + "\n",
		"x = y" + strings.Repeat("**y", 1001) + "\n",
		"x = " + strings.Repeat("-", 1001) + "y\n",
		"x = 1" + strings.Repeat(" + 1", 2000) + "\n",
		"x = f" + strings.Repeat("()", 2000) + "\n",
	} {
		f.Add([]byte(src))
	}
	golden, err := os.ReadFile("testdata/precedence.golden")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n") {
		src, _, _ := strings.Cut(line, "\t")
		f.Add([]byte(src + "\n"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := string(data)
		mod, err := Parse("fuzz.py", src)
		toks, _ := pytoken.ScanAll("fuzz.py", src)
		open := 0
		for _, tok := range toks {
			switch tok.Kind {
			case pytoken.LPAREN, pytoken.LBRACKET, pytoken.LBRACE:
				if open++; open > 200 {
					t.Fatalf("%d brackets open at %v", open, tok.Pos)
				}
			case pytoken.RPAREN, pytoken.RBRACKET, pytoken.RBRACE:
				open = max(open-1, 0)
			}
		}
		for _, st := range mod.Body {
			if d := nestedDepth(st); d > maxDepth {
				t.Fatalf("statement at %v nests %d deep, budget %d", st.Pos(), d, maxDepth)
			}
		}
		if err != nil {
			return
		}
		pyast.Inspect(mod, func(n pyast.Node) bool {
			es, ok := n.(*pyast.ExprStmt)
			if !ok {
				return true
			}
			text := Unparse(es.Value)
			again, err := Parse("unparse.py", text+"\n")
			var got string
			if err == nil && len(again.Body) == 1 {
				if es2, ok := again.Body[0].(*pyast.ExprStmt); ok {
					got = Unparse(es2.Value)
				}
			}
			if got != text {
				t.Fatalf("statement at %v unparses to %q, which parses (error %v) back to %q", es.Pos(), text, err, got)
			}
			return true
		})
	})
}

// readSeed decodes one file of a `go test fuzz v1` corpus holding a
// single []byte.
func readSeed(f *testing.F, path string) []byte {
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	_, line, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
	quoted, ok := strings.CutPrefix(line, "[]byte(")
	if !ok {
		f.Fatalf("%s: not a []byte seed", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if err != nil {
		f.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// nestedDepth is the most edges nest counts on one path down from n:
// into the operand of a unary operator, not or await, the right operand
// of **, a lambda's body and a conditional expression's else.
func nestedDepth(n pyast.Node) int {
	deepest := 0
	var walk func(n pyast.Node, d int)
	walk = func(n pyast.Node, d int) {
		deepest = max(deepest, d)
		pyast.Inspect(n, func(c pyast.Node) bool {
			if c == n {
				return true
			}
			step := 0
			switch x := n.(type) {
			case *pyast.UnaryOp, *pyast.Await, *pyast.Lambda:
				step = 1
			case *pyast.BinOp:
				if x.Op == pytoken.DOUBLESTAR && c == x.Right {
					step = 1
				}
			case *pyast.IfExp:
				if c == x.Else {
					step = 1
				}
			}
			walk(c, d+step)
			return false
		})
	}
	walk(n, 0)
	return deepest
}
