package core

import (
	"bytes"
	"testing"

	"seldon/internal/dataflow"
	"seldon/internal/pyparse"
)

// FuzzFrontEndScratchEquivalence feeds arbitrary bytes to the front-end
// as a source file, once through the scratch-free entry points and once
// through AnalyzeFiles with a scratch that last analyzed a different
// file. Neither may panic, and both must report the same parse error and
// build byte-equal graphs: recycled memory never shows in a result. The
// seed corpus (testdata/fuzz) is the sources of examples/ plus lexer and
// parser edge cases.
func FuzzFrontEndScratchEquivalence(f *testing.F) {
	f.Add([]byte(taintedSrc))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := string(data)
		mod, wantErr := pyparse.Parse("fuzz.py", src)
		want := dataflow.AnalyzeModule(mod, dataflow.Options{}).AppendBinary(nil)

		sc := new(Scratch)
		AnalyzeFiles(map[string]string{"other.py": dirtySrc}, Config{Workers: 1, Scratch: sc})
		fe := AnalyzeFiles(map[string]string{"fuzz.py": src}, Config{Workers: 1, Scratch: sc})

		if got := fe.Graphs[0].AppendBinary(nil); !bytes.Equal(got, want) {
			t.Errorf("graph differs between a nil and a dirty scratch")
		}
		switch {
		case wantErr == nil && len(fe.ParseErrs) != 0:
			t.Errorf("dirty scratch: parse error %q, nil scratch: none", fe.ParseErrs[0])
		case wantErr != nil && (len(fe.ParseErrs) != 1 || fe.ParseErrs[0].Error() != wantErr.Error()):
			t.Errorf("parse errors differ: dirty scratch %q, nil scratch %q", fe.ParseErrs, wantErr)
		}
	})
}

// dirtySrc leaves a scratch with tokens, nodes of most kinds, objects
// with fields, cloned environments and an error behind.
const dirtySrc = `import os, sys as system
from a.b import c as d

class Store(Base):
    def __init__(self, path, *rest, **opts):
        self.path = path
        self.items = [p for p in rest if p]
    def load(self, key):
        with open(self.path) as fh:
            data = fh.read()[key]
        try:
            return d.parse(data, strict=True) if data else None
        except ValueError as err:
            raise system.exit(f"bad {key!r}: {err}")

def main(argv):
    s = Store(argv[1], *argv[2:])
    while s.items:
        x = s.load(s.items.pop())
        x += os.environ['HOME']
    return lambda v: (v, x)
def broken(:
`
