package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"seldon/internal/core"
	"seldon/internal/incr"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
)

// The -session-dir path: learning through a persistent incremental
// session instead of from scratch. The session directory holds one
// state file (internal/incr) carrying the per-file propagation graphs,
// the previous solution, and any feedback pins. A run diffs the current
// corpus against the session by source content hash — unchanged files
// are not even re-parsed — retracts files that disappeared, splices the
// rest, applies -feedback verdicts, re-learns (delta constraint build +
// warm-started solve), and persists the updated session. The learned
// store is byte-identical to a from-scratch run over the same corpus.

// verdict is one entry of a -feedback file: a JSON array of objects,
// each carrying a symbol, a role (source, sanitizer, or sink), and a
// verdict (accept or reject), replayed into the session as hard pins
// before re-learning.
type verdict struct {
	Symbol  string `json:"symbol"`
	Role    string `json:"role"`
	Verdict string `json:"verdict"`
}

func parseRole(s string) (propgraph.Role, error) {
	switch s {
	case "source":
		return propgraph.Source, nil
	case "sanitizer":
		return propgraph.Sanitizer, nil
	case "sink":
		return propgraph.Sink, nil
	}
	return 0, fmt.Errorf("role must be source, sanitizer, or sink, got %q", s)
}

// runSession learns files through the persistent session in sessionDir,
// creating it cold when absent or unusable (corrupt, different seed or
// knobs, analyzer version skew).
func runSession(sessionDir, feedbackFile string, files map[string]string,
	seedSpec *spec.Spec, cfg core.Config) (*core.Result, error) {
	t0 := time.Now()
	sess, err := incr.LoadDir(sessionDir, seedSpec, cfg)
	resumed := err == nil
	if err != nil {
		if !os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "seldon: session unusable (%v), starting cold\n", err)
		}
		sess = incr.NewSession(seedSpec, cfg)
	}

	// Diff the corpus against the session by content hash: splice what
	// changed or appeared, retract what disappeared.
	spliced, skipped := 0, 0
	for name, src := range files {
		if h, ok := sess.FileHash(name); ok && h == sha256.Sum256([]byte(src)) {
			skipped++
			continue
		}
		sess.SpliceSource(name, src)
		spliced++
	}
	retracted := 0
	for _, name := range sess.Files() {
		if _, ok := files[name]; !ok {
			sess.Retract(name)
			retracted++
		}
	}

	pins := 0
	if feedbackFile != "" {
		data, err := os.ReadFile(feedbackFile)
		if err != nil {
			return nil, err
		}
		var verdicts []verdict
		if err := json.Unmarshal(data, &verdicts); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", feedbackFile, err)
		}
		for i, v := range verdicts {
			role, err := parseRole(v.Role)
			if err != nil {
				return nil, fmt.Errorf("%s entry %d: %w", feedbackFile, i, err)
			}
			var val float64
			switch v.Verdict {
			case "accept":
				val = 1
			case "reject":
				val = 0
			default:
				return nil, fmt.Errorf("%s entry %d: verdict must be accept or reject, got %q",
					feedbackFile, i, v.Verdict)
			}
			if v.Symbol == "" {
				return nil, fmt.Errorf("%s entry %d: empty symbol", feedbackFile, i)
			}
			sess.Pin(v.Symbol, role, val)
			pins++
		}
	}

	res, st := sess.Relearn()
	if err := sess.SaveDir(sessionDir); err != nil {
		return nil, fmt.Errorf("persisting session: %w", err)
	}

	mode := "cold"
	if resumed {
		mode = "resumed"
	}
	union := "patched"
	if st.UnionRebuilt != "" {
		union = "rebuilt (" + st.UnionRebuilt + ")"
	}
	fmt.Printf("session %s (%s): %d files (%d spliced, %d unchanged, %d retracted), "+
		"union %s, spans reused %d/%d, rows reused %d (%d dead), warm=%v, epochs saved %d",
		sessionDir, mode, st.Files, spliced, skipped, retracted,
		union, st.Delta.SpansReused, st.Delta.Spans, st.RowsReused, st.RowsDead, st.WarmStarted, st.EpochsSaved)
	if pins > 0 {
		fmt.Printf(", %d feedback pins", pins)
	}
	fmt.Printf(", wall %s\n", time.Since(t0).Round(time.Millisecond))
	return res, nil
}
