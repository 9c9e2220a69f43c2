package examples_test

import (
	"fmt"
	"sort"

	"seldon/internal/dataflow"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
	"seldon/internal/taint"
)

// app is a small multi-file Flask application with an SQL injection, a
// cross-site scripting flaw, a path traversal and an open redirect; one
// handler is properly sanitized.
var app = map[string]string{
	"blog/views.py": `from flask import request, Response, render_template
import MySQLdb

@app.route('/search')
def search():
    term = request.args.get('q')
    conn = MySQLdb.connect()
    cur = conn.cursor()
    cur.execute("SELECT * FROM posts WHERE title LIKE '" + term + "'")
    return render_template('results.html', rows=cur)

@app.route('/greet')
def greet():
    name = request.args.get('name')
    return Response('<h1>Hello ' + name + '</h1>')
`,
	"blog/media.py": `from flask import request, send_file
from werkzeug.utils import secure_filename
import os

@app.route('/download')
def download():
    name = request.args.get('file')
    return send_file(os.path.join('/srv/blog', name))

@app.route('/upload', methods=['POST'])
def upload():
    name = request.files['f'].filename
    name = secure_filename(name)
    request.files['f'].save(os.path.join('/srv/blog', name))
    return 'ok'
`,
	"blog/admin.py": `from flask import request, redirect

@app.route('/login')
def login():
    nxt = request.args.get('next')
    return redirect(nxt)
`,
}

// Example_webaudit audits a small multi-file Flask application with the
// paper's App. B seed specification: the push-button scenario from the
// paper's introduction.
func Example_webaudit() {
	seed := spec.Seed()
	// The App. B seed pins fully qualified names; our handlers read
	// request.files['f'], so add the upload source/sink like a project
	// would extend the seed.
	seed.Add(propgraph.Source, "flask.request.files['f'].filename")
	seed.Add(propgraph.Sink, "flask.request.files['f'].save()")
	seed.Add(propgraph.Sanitizer, "werkzeug.utils.secure_filename()")

	names := make([]string, 0, len(app))
	for n := range app {
		names = append(names, n)
	}
	sort.Strings(names)
	var graphs []*propgraph.Graph
	for _, n := range names {
		g, err := dataflow.AnalyzeSource(n, app[n])
		if err != nil {
			panic(err)
		}
		graphs = append(graphs, g)
	}

	reports := taint.Analyze(propgraph.Union(graphs...), seed)
	fmt.Printf("audited %d files with the App. B seed specification\n\n", len(app))
	for i := range reports {
		r := &reports[i]
		fmt.Printf("[%d] %-18s %s:%s\n     %s\n  -> %s\n",
			i+1, r.Category, r.File, r.SourcePos, r.SourceRep, r.SinkRep)
	}
	s := taint.Summarize(reports)
	fmt.Printf("\n%d findings in %d files — the sanitized /upload handler is clean.\n",
		s.Total, s.Files)

	// Output:
	// audited 3 files with the App. B seed specification
	//
	// [1] open-redirect      blog/admin.py:5:11
	//      flask.request.args.get()
	//   -> flask.redirect()
	// [2] path-traversal     blog/media.py:7:12
	//      flask.request.args.get()
	//   -> flask.send_file()
	// [3] sql-injection      blog/views.py:6:12
	//      flask.request.args.get()
	//   -> MySQLdb.connect().cursor().execute()
	// [4] xss                blog/views.py:14:12
	//      flask.request.args.get()
	//   -> flask.Response()
	//
	// 4 findings in 3 files — the sanitized /upload handler is clean.
}
