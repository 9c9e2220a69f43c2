package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"seldon/internal/corpus"
	"seldon/internal/dataflow"
	"seldon/internal/obs"
	"seldon/internal/propgraph"
	"seldon/internal/pyparse"
	"seldon/internal/spec"
	"seldon/internal/taint"
)

// adversarialFiles is a corpus whose sorted order starts with its largest
// file, then a file that does not parse, then its smallest: a recycled
// buffer shrinks, holds error state, and grows again. A tainted handler
// and an f-string (whose fragments are parsed by a sub-parser sharing the
// scratch) ride along.
func adversarialFiles(t *testing.T, seed int64) map[string]string {
	t.Helper()
	c := corpus.Generate(corpus.Config{Files: 24, Seed: seed})
	files := c.FileMap()
	largest, smallest := c.Files[0].Source, c.Files[0].Source
	for _, f := range c.Files {
		if len(f.Source) > len(largest) {
			largest = f.Source
		}
		if len(f.Source) < len(smallest) {
			smallest = f.Source
		}
	}
	files["\x01a_largest.py"] = strings.Repeat(largest, 12)
	files["\x01b_broken.py"] = "def broken(:\n  x = (1,\n\tclass K(B:\n  return 'unterminated\n"
	files["\x01c_smallest.py"] = smallest
	files["\x01d_tainted.py"] = taintedSrc
	files["\x01e_fstring.py"] = "import db\ndef q(t, u):\n    return db.run(f\"SELECT {t.name} {u[0]!r} {bad syntax(}\" 'tail')\n"
	return files
}

const taintedSrc = `from flask import request
import os

@app.route('/media/', methods=['POST'])
def media():
    filename = request.files['f'].filename
    path = os.path.join('/srv', filename)
    request.files['f'].save(path)
`

func taintSpec() *spec.Spec {
	s := spec.New()
	s.Add(propgraph.Source, "flask.request.files['f'].filename")
	s.Add(propgraph.Sink, "flask.request.files['f'].save()")
	return s
}

// referenceAnalysis is the scratch-free front-end, file by file through
// the public entry points: what every scratch path must reproduce.
func referenceAnalysis(files map[string]string) (graphs map[string][]byte, errs map[string]string) {
	graphs, errs = map[string][]byte{}, map[string]string{}
	for name, src := range files {
		mod, err := pyparse.Parse(name, src)
		graphs[name] = dataflow.AnalyzeModule(mod, dataflow.Options{}).AppendBinary(nil)
		if err != nil {
			errs[name] = err.Error()
		}
	}
	return graphs, errs
}

func checkAgainstReference(t *testing.T, what string, fe *FrontEnd, graphs map[string][]byte, errs map[string]string) {
	t.Helper()
	for i, name := range fe.Names {
		if got := fe.Graphs[i].AppendBinary(nil); !bytes.Equal(got, graphs[name]) {
			t.Errorf("%s: graph of %q differs from the scratch-free analysis", what, name)
		}
	}
	if len(fe.ParseErrs) != len(errs) {
		t.Errorf("%s: %d parse errors, want %d", what, len(fe.ParseErrs), len(errs))
	}
	for i, name := range fe.ParseErrorFiles {
		if got := fe.ParseErrs[i].Error(); got != errs[name] {
			t.Errorf("%s: parse error of %q = %q, want %q", what, name, got, errs[name])
		}
	}
}

// A recycled Scratch must never leak state between files: at every
// worker count, with a fresh or a dirty donated scratch, every file's
// graph and parse error must equal the scratch-free analysis.
func TestScratchReuseDeterminism(t *testing.T) {
	files := adversarialFiles(t, 1)
	graphs, errs := referenceAnalysis(files)
	if len(errs) == 0 {
		t.Fatal("the adversarial corpus has no parse error")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		fresh := AnalyzeFiles(files, Config{Workers: workers, Scratch: new(Scratch)})
		checkAgainstReference(t, fmt.Sprintf("workers=%d fresh scratch", workers), fresh, graphs, errs)

		// Dirty: the scratch last analyzed a different corpus, a file much
		// larger than anything here, and a file full of errors.
		dirty := new(Scratch)
		other := adversarialFiles(t, 2)
		other["huge.py"] = strings.Repeat(files["\x01a_largest.py"], 4)
		AnalyzeFiles(other, Config{Workers: 1, Scratch: dirty})
		for run := 1; run <= 2; run++ { // the second run finds this corpus's own leftovers
			fe := AnalyzeFiles(files, Config{Workers: workers, Scratch: dirty})
			checkAgainstReference(t, fmt.Sprintf("workers=%d dirty scratch run %d", workers, run), fe, graphs, errs)
		}
	}
}

// Nothing the front-end returns may point into a scratch: after a batch,
// overwriting every recycled buffer with garbage must leave the returned
// graphs, the parse-error texts and the taint reports over those graphs
// exactly as they were.
func TestScratchPoison(t *testing.T) {
	files := adversarialFiles(t, 3)
	sc := new(Scratch)
	fe := AnalyzeFiles(files, Config{Workers: 1, Scratch: sc})
	if len(fe.ParseErrs) == 0 {
		t.Fatal("the adversarial corpus has no parse error")
	}
	union := propgraph.Union(fe.Graphs...)
	reports := taint.Analyze(union, taintSpec())
	if len(reports) == 0 {
		t.Fatal("the adversarial corpus has no taint report")
	}
	snapshot := func() (graphs [][]byte, errs []string, reps string) {
		for _, g := range fe.Graphs {
			graphs = append(graphs, g.AppendBinary(nil))
		}
		for _, e := range fe.ParseErrs {
			errs = append(errs, e.Error())
		}
		for i := range reports {
			reps += reports[i].String() + fmt.Sprint(reports[i].Path) + "\n"
		}
		for _, r := range taint.Analyze(propgraph.Union(fe.Graphs...), taintSpec()) {
			reps += r.String() + "\n"
		}
		return graphs, errs, reps
	}
	graphs, errs, reps := snapshot()

	sc.Poison()

	graphs2, errs2, reps2 := snapshot()
	for i := range graphs {
		if !bytes.Equal(graphs[i], graphs2[i]) {
			t.Errorf("graph of %q changed when the scratch was overwritten", fe.Names[i])
		}
	}
	if !reflect.DeepEqual(errs, errs2) {
		t.Errorf("parse errors changed when the scratch was overwritten:\n%q\n%q", errs, errs2)
	}
	if reps != reps2 {
		t.Errorf("taint reports changed when the scratch was overwritten:\n%s\n%s", reps, reps2)
	}
}

// Reset must not keep what one huge input grew: the retained capacity
// stays under a fixed cap, the drop is reported, and the scratch goes on
// serving small inputs without allocating its buffers again.
func TestScratchRetentionCap(t *testing.T) {
	const retainCap = 4 << 20 // every buffer at its cap at once; a normal scratch holds 0.5 MiB
	sc := new(Scratch)
	small := map[string]string{"small.py": taintedSrc}
	AnalyzeFiles(small, Config{Workers: 1, Scratch: sc})
	if d := sc.Reset(); d != 0 {
		t.Fatalf("Reset after a small file dropped %d buffers", d)
	}
	warm := sc.Retained()

	huge := strings.Repeat(taintedSrc, (1<<20)/len(taintedSrc))
	AnalyzeFiles(map[string]string{"huge.py": huge}, Config{Workers: 1, Scratch: sc})
	grown := sc.Retained()
	if grown < 8<<20 {
		t.Fatalf("a 1 MiB file grew the scratch to only %d bytes; the test no longer tests retention", grown)
	}
	if d := sc.Reset(); d == 0 {
		t.Fatal("Reset after a 1 MiB file reported no drop")
	}
	if got := sc.Retained(); got > retainCap {
		t.Fatalf("scratch retains %d bytes after Reset, cap %d (it held %d)", got, retainCap, grown)
	}

	AnalyzeFiles(small, Config{Workers: 1, Scratch: sc})
	if got := sc.Retained(); got > retainCap || got < warm {
		t.Fatalf("scratch retains %d bytes after the next small file (warm size %d)", got, warm)
	}
}

// On a fully warm cache run parse+dataflow never execute and the
// parallel-speedup ratio is unmeasurable: the gauge must be omitted,
// not published as 0 (a PR 6 regression).
func TestFrontendSpeedupOmittedWhenFullyCached(t *testing.T) {
	files := corpus.Generate(corpus.Config{Files: 6}).FileMap()
	cache := openCache(t)

	reg := obs.New()
	AnalyzeFiles(files, Config{Workers: 2, Cache: cache, Metrics: reg})
	if _, ok := reg.Snapshot().Gauges[obs.GaugeFrontendSpeedup]; !ok {
		t.Fatalf("%s missing on a cold run", obs.GaugeFrontendSpeedup)
	}

	warm := obs.New()
	fe := AnalyzeFiles(files, Config{Workers: 2, Cache: cache, Metrics: warm})
	if fe.CacheHits != len(files) {
		t.Fatalf("warm run: %d/%d hits", fe.CacheHits, len(files))
	}
	if v, ok := warm.Snapshot().Gauges[obs.GaugeFrontendSpeedup]; ok {
		t.Fatalf("%s = %v on a fully warm run, want gauge omitted", obs.GaugeFrontendSpeedup, v)
	}
}
