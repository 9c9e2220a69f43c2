package experiments

import (
	"fmt"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/eval"
)

// ablationRow is one full-corpus learn with a single knob moved off its
// default: how many specifications it infers and how precise they are.
type ablationRow struct {
	Knob, Value string
	Specs       int
	Precision   float64
}

// runAblations moves the three design constants the paper argues for —
// the implication strength C (§4.2), the L1 weight λ (§4.4) and the
// backoff frequency cutoff (§4.3) — one at a time at the golden size.
func runAblations() []ablationRow {
	c := corpus.Generate(corpus.Config{Files: goldenFiles, Seed: goldenSeed})
	files, seed := c.FileMap(), corpus.ExperimentSeed()
	learn := func(knob string, value any, mutate func(*core.Config)) ablationRow {
		var cfg core.Config
		mutate(&cfg)
		entries := core.LearnFromSources(files, seed, cfg).LearnedEntries(seed)
		pr := eval.SamplePrecision(entries, c.Truth, 50, 1)
		return ablationRow{Knob: knob, Value: fmt.Sprint(value), Specs: len(entries), Precision: pr.Overall().Precision()}
	}
	var rows []ablationRow
	for _, v := range []float64{0.75, 1} {
		rows = append(rows, learn("C", v, func(c *core.Config) { c.Constraints.C = v }))
	}
	for _, v := range []float64{0.01, 0.1, 1} {
		rows = append(rows, learn("λ", v, func(c *core.Config) { c.Constraints.Lambda = v }))
	}
	for _, v := range []int{5, 1} {
		rows = append(rows, learn("cutoff", v, func(c *core.Config) { c.Constraints.BackoffCutoff = v }))
	}
	return rows
}
