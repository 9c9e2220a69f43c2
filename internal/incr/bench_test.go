package incr_test

import (
	"math/rand"
	"runtime"
	"testing"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/incr"
	"seldon/internal/obs"
)

// deltaDriver is the benchmark harness's relearn_delta in small: a primed
// session and two corpora of equal size, every edit flipping a few files
// to the other corpus's file at the same index, so every edit is a real
// change however long it runs.
type deltaDriver struct {
	sess *incr.Session
	a, b []corpus.File
	onB  []bool
	rng  *rand.Rand
}

func newDeltaDriver(files int, cfg core.Config) *deltaDriver {
	d := &deltaDriver{
		a:   corpus.Generate(corpus.Config{Files: files, Seed: 1}).Files,
		b:   corpus.Generate(corpus.Config{Files: files, Seed: 2}).Files,
		rng: rand.New(rand.NewSource(1)),
	}
	d.a = d.a[:min(len(d.a), len(d.b))]
	d.onB = make([]bool, len(d.a))
	d.sess = incr.NewSession(corpus.ExperimentSeed(), cfg)
	for _, f := range d.a {
		d.sess.SpliceSource(f.Name, f.Source)
	}
	d.sess.Relearn()
	return d
}

// edit flips n distinct files and re-learns.
func (d *deltaDriver) edit(n int) incr.RelearnStats {
	for _, i := range d.rng.Perm(len(d.a))[:n] {
		d.onB[i] = !d.onB[i]
		src := d.a[i].Source
		if d.onB[i] {
			src = d.b[i].Source
		}
		d.sess.SpliceSource(d.a[i].Name, src)
	}
	_, st := d.sess.Relearn()
	return st
}

// BenchmarkSessionRelearnDelta times a re-learn after a six-file edit on a
// primed 1500-file session: the splices, the union patch, the delta-aware
// constraint build and the warm solve through the standing row table.
// Beside ms/op, MB/op and allocs/op, patched/op is the share of re-learns that patched the union rather than
// rebuilding it, reused/op the share of constraints whose solver row came
// from the table's memory, and hashed/op the share of spans whose
// fingerprint the constraint build computed rather than remembered. The
// session reports to a registry, as a served one does, and the four
// stages a re-learn runs are reported as their ms/op: union-ms/op,
// constraints-ms/op, solve-ms/op and select-ms/op.
func BenchmarkSessionRelearnDelta(b *testing.B) {
	reg := obs.New()
	d := newDeltaDriver(1500, core.Config{Metrics: reg})
	d.edit(6) // the first patch grows the standing buffers
	b.ReportAllocs()
	stages := []struct{ timer, unit string }{
		{obs.StageIncrRebuildUnion, "union-ms/op"},
		{obs.StageIncrRebuildConstraints, "constraints-ms/op"},
		{obs.StageSolve, "solve-ms/op"},
		{obs.StageSelect, "select-ms/op"},
	}
	spent := func() []float64 {
		timers := reg.Snapshot().Timers
		s := make([]float64, len(stages))
		for i, st := range stages {
			s[i] = timers[st.timer].Sum
		}
		return s
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stagesBefore := spent()
	patched, reused, hashed := 0, 0.0, 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := d.edit(6)
		if st.UnionRebuilt == "" {
			patched++
		}
		reused += float64(st.RowsReused) / float64(max(st.Delta.ConstraintsReused, 1))
		hashed += float64(st.Delta.SpansHashed) / float64(max(st.Delta.Spans, 1))
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N)
	for i, s := range spent() {
		b.ReportMetric((s-stagesBefore[i])*1000/n, stages[i].unit)
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/n, "ms/op")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n/(1<<20), "MB/op")
	b.ReportMetric(float64(patched)/n, "patched/op")
	b.ReportMetric(reused/n, "reused/op")
	b.ReportMetric(hashed/n, "hashed/op")
}
