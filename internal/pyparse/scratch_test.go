package pyparse

import (
	"reflect"
	"strings"
	"testing"

	"seldon/internal/pyast"
)

const scratchSrc = `from flask import request, Response
import os.path as osp, sys

@app.route('/search')
def search(limit=10, *args, **kwargs):
    term = request.args.get('q', default=None)
    rows = [normalize(r) for r in db.query(term) if r.ok]
    a = b = (1, 2.5, 'x' "y", None)
    try:
        payload = {'rows': rows, 'n': len(rows)}
    except ValueError as e:
        payload = {}
    if rows: return Response(render(payload)); pass
    elif not term:
        del rows[0], a
    return f"{term!r} of {len(rows):>4}"

class View(MethodView):
    def post(self):
        return self.render(request.form.get('x'))
`

const brokenSrc = "def f(:\n  x = (1,\ny = [1, 2\nclass K(B:\n  return 'open\n"

// A module parsed through a scratch — fresh, or dirtied by any other
// input including one that fails to parse — equals the scratch-free
// parse, node for node and error for error.
func TestParseWithEqualsParse(t *testing.T) {
	inputs := map[string]string{
		"ok.py":     scratchSrc,
		"broken.py": brokenSrc,
		"big.py":    strings.Repeat(scratchSrc, 40),
		"empty.py":  "",
		"crlf.py":   strings.ReplaceAll(scratchSrc, "\n", "\r\n"),
	}
	sc := new(Scratch)
	for round := 0; round < 2; round++ {
		for name, src := range inputs {
			want, wantErr := Parse(name, src)
			got, gotErr := ParseWith(sc, name, src)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("round %d: ParseWith(%s) differs from Parse", round, name)
			}
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Errorf("round %d: ParseWith(%s) error %v, want %v", round, name, gotErr, wantErr)
			}
		}
	}
}

// The validity rule: a module from ParseWith lives in the scratch (so
// overwriting the scratch destroys it), a module from Parse owns its
// memory, and a parse error belongs to neither.
func TestParseWithModuleLivesInScratch(t *testing.T) {
	owned, _ := Parse("ok.py", scratchSrc)
	sc := new(Scratch)
	_, err := ParseWith(sc, "broken.py", brokenSrc)
	if err == nil {
		t.Fatal("broken source parsed")
	}
	errText := err.Error()
	borrowed, _ := ParseWith(sc, "ok.py", scratchSrc)
	if !reflect.DeepEqual(borrowed, owned) {
		t.Fatal("ParseWith differs from Parse")
	}

	sc.Poison()

	if reflect.DeepEqual(borrowed, owned) {
		t.Error("a module parsed with a scratch survived the scratch being overwritten")
	}
	again, _ := Parse("ok.py", scratchSrc)
	if !reflect.DeepEqual(owned, again) {
		t.Error("a module from Parse changed when an unrelated scratch was overwritten")
	}
	if err.Error() != errText {
		t.Errorf("parse error changed when the scratch was overwritten: %q", err.Error())
	}
}

// Reset lets go of the source text and of what a huge input grew.
func TestScratchResetCaps(t *testing.T) {
	sc := new(Scratch)
	ParseWith(sc, "ok.py", scratchSrc)
	if d := sc.Reset(); d != 0 {
		t.Fatalf("Reset after a small parse dropped %d buffers", d)
	}
	warm := sc.Retained()
	ParseWith(sc, "huge.py", strings.Repeat(scratchSrc, 1500))
	if sc.Retained() < 10*warm {
		t.Fatal("the huge parse did not grow the scratch")
	}
	if d := sc.Reset(); d == 0 {
		t.Fatal("Reset after a huge parse reported no drop")
	}
	limit := maxTokens*40 + len(sc.buffers())*(maxArenaBytes+16*maxStackLen)
	if got := sc.Retained(); got > limit {
		t.Fatalf("scratch retains %d bytes after Reset, limit %d", got, limit)
	}
	var n int
	mod, err := ParseWith(sc, "ok.py", scratchSrc)
	pyast.Inspect(mod, func(pyast.Node) bool { n++; return true })
	if err != nil || n == 0 {
		t.Fatalf("parse after a capped Reset: %d nodes, err %v", n, err)
	}
}
