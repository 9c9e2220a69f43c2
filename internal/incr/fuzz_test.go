package incr_test

import (
	"fmt"
	"testing"

	"seldon/internal/core"
	"seldon/internal/propgraph"
)

// FuzzSessionEdits reads its input as a program over a dozen tiny files —
// two bytes an instruction: splice a file with a graph drawn from the
// bytes, retract one, pin or unpin a variable, re-learn — runs it on a
// session, and holds every Relearn (and one at the end) against the three
// contracts of oracle.relearn: the union is propgraph.Union of the files,
// the system constraints.Build on it, the solution lp.Minimize's without
// a row table. The graphs share a small pool of names and sometimes
// bring a rare one, so programs patch the union, renumber it, compact it
// and kill solver rows in whatever order the fuzzer finds.
func FuzzSessionEdits(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x08, 0x12, 0x10, 0x23, 0x06, 0x00, 0x00, 0x41, 0x06, 0x00})
	f.Fuzz(func(t *testing.T, prog []byte) {
		prog = prog[:min(len(prog), 400)]
		o := newOracle(tinySeed(), core.Config{Workers: 2})
		relearns := 0
		for i := 0; i+1 < len(prog); i += 2 {
			op, arg := prog[i], prog[i+1]
			file := fmt.Sprintf("t%02d.py", arg%12)
			rep, role := "pkg."+tinyPool[int(arg)%len(tinyPool)], propgraph.Role(arg/8%3)
			switch op % 8 {
			case 0, 1, 2:
				o.s.Splice(file, tinyGraph(file, uint32(op)<<8|uint32(arg)))
			case 3:
				o.s.Retract(file)
			case 4:
				o.pin(rep, role, float64(arg>>7))
			case 5:
				o.unpin(rep, role)
			default:
				relearns++
				if _, err := o.relearn(fmt.Sprintf("relearn %d (instruction %d)", relearns, i/2)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := o.relearn("final relearn"); err != nil {
			t.Fatal(err)
		}
	})
}
