// The library's runnable tours, one Example each, whose output go test
// checks: go test -v ./examples.
package examples_test

import (
	"fmt"

	"seldon/internal/core"
	"seldon/internal/dataflow"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
	"seldon/internal/taint"
)

// The paper's Fig. 2a snippet, with the sanitizer call removed so the
// taint analyzer has something to find.
const vulnerable = `from flask import request
import os

@app.route('/media/', methods=['POST'])
def media():
    filename = request.files['f'].filename
    path = os.path.join('/srv/media', filename)
    request.files['f'].save(path)
`

const sanitized = `from flask import request
from werkzeug import secure_filename
import os

@app.route('/media/', methods=['POST'])
def media():
    filename = request.files['f'].filename
    filename = secure_filename(filename)
    path = os.path.join('/srv/media', filename)
    request.files['f'].save(path)
`

// Example_quickstart is the five-minute tour of the library on the
// paper's Fig. 2 example: parse a Flask snippet, build its propagation
// graph, run the taint analyzer with a seed specification, and learn a
// new sanitizer role from a small corpus.
func Example_quickstart() {
	// 1. Build the propagation graph of the vulnerable snippet.
	graph, err := dataflow.AnalyzeSource("media.py", vulnerable)
	if err != nil {
		panic(err)
	}
	fmt.Println("== propagation graph ==")
	for id, e := range graph.Events {
		if graph.NumReps(id) > 0 {
			fmt.Printf("  event %d (%s): %s\n", id, e.Kind, graph.Rep(id, 0))
		}
	}
	fmt.Printf("  %d events, %d flow edges\n\n", len(graph.Events), graph.NumEdges())

	// 2. Run the taint analyzer with a hand-written specification.
	sp := spec.New()
	sp.Add(propgraph.Source, "flask.request.files['f'].filename")
	sp.Add(propgraph.Sanitizer, "werkzeug.secure_filename()")
	sp.Add(propgraph.Sink, "flask.request.files['f'].save()")

	fmt.Println("== taint analysis (vulnerable version) ==")
	for _, r := range taint.Analyze(graph, sp) {
		fmt.Printf("  %s\n", reportLine(r))
	}

	safe, _ := dataflow.AnalyzeSource("media.py", sanitized)
	fmt.Println("\n== taint analysis (sanitized version) ==")
	reports := taint.Analyze(safe, sp)
	fmt.Printf("  %d reports (secure_filename cuts the path)\n", len(reports))

	// 3. Learn the sanitizer role instead of hand-writing it: a corpus in
	// which the unlabeled secure_filename always sits between a seeded
	// source and a seeded sink.
	files := map[string]string{}
	for i := 0; i < 6; i++ {
		files[fmt.Sprintf("app%d.py", i)] = sanitized
	}
	seed := spec.New()
	seed.Add(propgraph.Source, "flask.request.files['f'].filename")
	seed.Add(propgraph.Source, "request.files['f'].filename")
	seed.Add(propgraph.Source, "files['f'].filename")
	seed.Add(propgraph.Sink, "flask.request.files['f'].save()")
	seed.Add(propgraph.Sink, "request.files['f'].save()")
	seed.Add(propgraph.Sink, "files['f'].save()")

	cfg := core.Config{}
	cfg.Constraints.BackoffCutoff = 2
	res := core.LearnFromSources(files, seed, cfg)

	fmt.Println("\n== learned specifications ==")
	for _, e := range res.LearnedEntries(seed) {
		fmt.Printf("  %-10s %-35s score %.2f\n", e.Role, e.Rep, e.Score)
	}

	// Output:
	// == propagation graph ==
	//   event 0 (call): app.route()
	//   event 1 (read): flask.request.files['f']
	//   event 2 (read): flask.request.files['f'].filename
	//   event 3 (call): os.path.join()
	//   event 4 (read): flask.request.files['f']
	//   event 5 (call): flask.request.files['f'].save()
	//   6 events, 4 flow edges
	//
	// == taint analysis (vulnerable version) ==
	//   media.py:6:35: unsanitized flow from flask.request.files['f'].filename (6:35) to flask.request.files['f'].save() (8:5) [path-traversal]
	//
	// == taint analysis (sanitized version) ==
	//   0 reports (secure_filename cuts the path)
	//
	// == learned specifications ==
	//   sanitizer  werkzeug.secure_filename()          score 0.63
	//   sanitizer  os.path.join()                      score 0.63
}

// reportLine formats a taint report as one line: where the source is,
// the flow from source to sink with their positions, and its category.
func reportLine(r taint.Report) string {
	return fmt.Sprintf("%s:%s: unsanitized flow from %s (%s) to %s (%s) [%s]",
		r.File, r.SourcePos, r.SourceRep, r.SourcePos, r.SinkRep, r.SinkPos, r.Category)
}
