package report

import (
	"fmt"
	"strconv"
	"time"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/merlin"
	"seldon/internal/propgraph"
)

// MerlinSweepPoint measures Merlin and Seldon on the same application
// size.
type MerlinSweepPoint struct {
	Files          int
	MerlinFactors  int
	MerlinSweeps   int // belief-propagation sweeps run
	MerlinTime     time.Duration
	MerlinTimedOut bool
	SeldonTime     time.Duration
	// SeldonConstraints and SeldonEpochs are Seldon's work on the same
	// application: constraints × solver epochs.
	SeldonConstraints int
	SeldonEpochs      int
}

// MerlinSweep is the anti-Fig.10: Merlin's cost curve versus Seldon's as
// application size grows, the quantitative version of Table 2's story.
type MerlinSweep struct {
	Points    []MerlinSweepPoint
	Collapsed bool
}

// RunMerlinSweep grows an application one project at a time and measures
// both systems. Collapsed selects Merlin's graph granularity.
func (e *Experiments) RunMerlinSweep(sizes []int, collapsed bool) MerlinSweep {
	out := MerlinSweep{Collapsed: collapsed}
	for _, files := range sizes {
		cfg := e.CorpusCfg
		cfg.Files = files
		c := corpus.Generate(cfg)
		g := unionOfCorpus(c)
		mg := g
		if collapsed {
			mg = g.Collapse()
		}
		pt := MerlinSweepPoint{Files: files}
		res, err := merlin.Infer(mg, e.Seed(), merlin.Options{MaxFactors: MerlinBudget})
		if err != nil {
			pt.MerlinTimedOut = true
			pt.MerlinFactors = MerlinBudget
		} else {
			pt.MerlinFactors = res.NumFactors
			pt.MerlinSweeps = res.Iterations
			pt.MerlinTime = res.InferenceTime
		}
		lcfg := e.LearnCfg
		lcfg.Constraints.BackoffCutoff = 2
		sres := core.Learn(g, e.Seed(), lcfg)
		pt.SeldonTime = sres.InferenceTime
		pt.SeldonConstraints = len(sres.System.Problem.Constraints)
		pt.SeldonEpochs = sres.SolverEpochs
		out.Points = append(out.Points, pt)
	}
	return out
}

func unionOfCorpus(c *corpus.Corpus) *propgraph.Graph {
	return propgraph.Union(core.AnalyzeFiles(c.FileMap(), core.Config{}).Graphs...)
}

func (m MerlinSweep) Render() string {
	kind := "uncollapsed"
	if m.Collapsed {
		kind = "collapsed"
	}
	tb := &table{title: fmt.Sprintf("Merlin scaling sweep (%s graphs) vs Seldon.", kind),
		cols: []string{"Files", "Merlin factors", "Merlin time", "Seldon time"}}
	for _, p := range m.Points {
		mt := fmtDuration(p.MerlinTime)
		if p.MerlinTimedOut {
			mt = "> budget (timeout)"
		}
		tb.add(strconv.Itoa(p.Files), strconv.Itoa(p.MerlinFactors), mt,
			fmtDuration(p.SeldonTime))
	}
	return tb.String()
}
