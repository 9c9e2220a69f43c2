package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"seldon/internal/core"
	"seldon/internal/incr"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
	"seldon/internal/specio"
)

// learn is `seldon learn`: the whole corpus analyzed in this process, from
// scratch or — with -session-dir or -feedback — through an incremental
// session.
func learn(args []string) error {
	fs := flag.NewFlagSet("seldon learn", flag.ExitOnError)
	in, lf, out, cache, of := addInputFlags(fs), addLearnFlags(fs), addOutputFlags(fs), addCacheFlags(fs), addObsFlags(fs)
	sessionDir := fs.String("session-dir", "", "persistent incremental-learning session directory: re-learns only what changed since the last run there (results identical to from-scratch)")
	feedbackFile := fs.String("feedback", "", "JSON file of {symbol, role, verdict} objects pinned as hard constraints before learning (the seed is not overridable: verdicts on its entries are skipped); the pins persist with -session-dir")
	fs.Parse(args)

	r, err := startLearnRun("seldon.learn", in, lf, of)
	if err != nil {
		return err
	}
	if r.cfg.Cache, err = cache.open(); err != nil {
		return err
	}
	files, err := in.files(0, 1)
	if err != nil {
		return err
	}
	seedSpec, err := lf.seed(in)
	if err != nil {
		return err
	}
	r.root.SetAttr("files", len(files))

	var res *core.Result
	summary := fmt.Sprintf("analyzed %d files", len(files))
	if *sessionDir != "" || *feedbackFile != "" {
		summary = fmt.Sprintf("re-learned %d files incrementally", len(files))
		res, err = runSession(*sessionDir, *feedbackFile, files, seedSpec, r.cfg)
		if err != nil {
			return err
		}
	} else {
		res = core.LearnFromSources(files, seedSpec, r.cfg)
	}
	return r.finish(res, seedSpec, summary, len(files), specio.Fingerprint(files), out)
}

// verdict is one entry of a -feedback file: a JSON array of objects,
// each carrying a symbol, a role (source, sanitizer, or sink), and a
// verdict (accept or reject), replayed into the session as hard pins
// before re-learning.
type verdict struct {
	Symbol  string `json:"symbol"`
	Role    string `json:"role"`
	Verdict string `json:"verdict"`
}

// runSession learns files through an incremental session (internal/incr):
// the one persisted in sessionDir — created cold when absent or unusable
// (corrupt, different seed or knobs, analyzer version skew) — or, without
// a directory, one that lives for this run. The corpus is diffed against
// the session by source content hash, so unchanged files are not even
// re-parsed; files that disappeared are retracted, -feedback verdicts
// pinned, and the re-learn is a delta constraint build and a warm-started
// solve. The learned store is byte-identical to a from-scratch run over
// the same corpus.
func runSession(sessionDir, feedbackFile string, files map[string]string,
	seedSpec *spec.Spec, cfg core.Config) (*core.Result, error) {
	t0 := time.Now()
	sess, where, mode := incr.NewSession(seedSpec, cfg), "in memory", "cold"
	if sessionDir != "" {
		where = sessionDir
		loaded, err := incr.LoadDir(sessionDir, seedSpec, cfg)
		if err == nil {
			sess, mode = loaded, "resumed"
		} else if !os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "seldon: session unusable (%v), starting cold\n", err)
		}
	}

	spliced, unchanged := sess.SpliceSources(files)
	retracted := 0
	for _, name := range sess.Files() {
		if _, ok := files[name]; !ok {
			sess.Retract(name)
			retracted++
		}
	}

	var verdicts []verdict
	skipped := 0 // verdicts on roles the seed assigns: Pin refuses them
	if feedbackFile != "" {
		data, err := os.ReadFile(feedbackFile)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &verdicts); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", feedbackFile, err)
		}
		values := map[string]float64{"accept": 1, "reject": 0}
		for i, v := range verdicts {
			role, ok := propgraph.ParseRole(v.Role)
			if !ok {
				return nil, fmt.Errorf("%s entry %d: role must be source, sanitizer, or sink, got %q",
					feedbackFile, i, v.Role)
			}
			val, ok := values[v.Verdict]
			if !ok {
				return nil, fmt.Errorf("%s entry %d: verdict must be accept or reject, got %q",
					feedbackFile, i, v.Verdict)
			}
			if v.Symbol == "" {
				return nil, fmt.Errorf("%s entry %d: empty symbol", feedbackFile, i)
			}
			if !sess.Pin(v.Symbol, role, val) {
				skipped++
			}
		}
	}

	res, st := sess.Relearn()
	if sessionDir != "" {
		if err := sess.SaveDir(sessionDir); err != nil {
			return nil, fmt.Errorf("persisting session: %w", err)
		}
	}

	union := "patched"
	if st.UnionRebuilt != "" {
		union = "rebuilt (" + st.UnionRebuilt + ")"
	}
	fmt.Printf("session %s (%s): %d files (%d spliced, %d unchanged, %d retracted), "+
		"union %s, spans reused %d/%d, rows reused %d (%d dead), warm=%v, epochs saved %d",
		where, mode, st.Files, spliced, unchanged, retracted,
		union, st.Delta.SpansReused, st.Delta.Spans, st.RowsReused, st.RowsDead, st.WarmStarted, st.EpochsSaved)
	if pins := len(verdicts) - skipped; pins > 0 {
		fmt.Printf(", %d feedback pins", pins)
	}
	if skipped > 0 {
		fmt.Printf(", %d verdicts skipped as seed entries", skipped)
	}
	fmt.Printf(", wall %s\n", time.Since(t0).Round(time.Millisecond))
	return res, nil
}
