package main

import (
	"bytes"
	"testing"

	"seldon/internal/dataflow"
	"seldon/internal/propgraph"
	"seldon/internal/pyparse"
)

func exampleUnion(t *testing.T) *propgraph.Graph {
	t.Helper()
	sources := map[string]string{
		"a.py": "import flask\nq = flask.request.args.get('q')\nprint(q)\n",
		"b.py": "import os\nos.system('ls')\n",
	}
	var graphs []*propgraph.Graph
	for _, name := range []string{"a.py", "b.py"} {
		mod, err := pyparse.Parse(name, sources[name])
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		graphs = append(graphs, dataflow.AnalyzeModule(mod, dataflow.Options{}))
	}
	return propgraph.Union(graphs...)
}

// TestJSONOutputStillDefault: JSON is seldon graph's one output format.
func TestJSONOutputStillDefault(t *testing.T) {
	union := exampleUnion(t)
	data, err := encodeGraph(union)
	if err != nil {
		t.Fatalf("encodeGraph(json): %v", err)
	}
	if !bytes.HasPrefix(bytes.TrimSpace(data), []byte("{")) {
		t.Errorf("JSON output does not look like JSON: %.40q", data)
	}
}
