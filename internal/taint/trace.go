package taint

import (
	"fmt"
	"strings"

	"seldon/internal/propgraph"
)

// Trace renders the report's witness path as a human-readable flow trace:
//
//	source  flask.request.args.get()            app.py:5:9
//	  ↓     textutil.titlecase()                app.py:6:9
//	sink    os.system()                         app.py:7:5
func (r *Report) Trace(g *propgraph.Graph) string {
	var b strings.Builder
	for i, id := range r.Path {
		if id < 0 || id >= len(g.Events) {
			continue
		}
		ev := g.Events[id]
		label := "  via "
		switch i {
		case 0:
			label = "source"
		case len(r.Path) - 1:
			label = "sink  "
		}
		fmt.Fprintf(&b, "%s  %-50s %s:%s\n", label, bestRep(ev), ev.File, ev.Pos)
	}
	return b.String()
}

// Dedupe collapses reports that share (source representation, sink
// representation), keeping the first (the input's deterministic order
// makes the kept witness stable). This is the "unique findings" view a
// reviewer triages, as opposed to the per-occurrence counts of Table 7.
func Dedupe(reports []Report) []Report {
	type key struct{ src, snk string }
	seen := make(map[key]bool)
	out := make([]Report, 0, len(reports))
	for i := range reports {
		k := key{reports[i].SourceRep, reports[i].SinkRep}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, reports[i])
	}
	return out
}
