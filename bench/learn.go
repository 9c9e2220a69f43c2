package main

import (
	"bytes"
	"math"
	"runtime"
	"time"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
	"seldon/internal/specio"
)

// learnCold is the paper's headline: a batch learn over the whole
// corpus from source text, nothing cached. It is the one workload where
// lex, parse, dataflow, constraint build and the full-budget cold solve
// all run at full size.
type learnCold struct {
	cfg   config
	corp  *corpus.Corpus
	files map[string]string
	seed  *spec.Spec
	core  core.Config
}

func (w *learnCold) setup() error {
	w.corp = corpus.Generate(corpus.Config{Files: w.cfg.files, Seed: w.cfg.seed})
	w.files = w.corp.FileMap()
	w.seed = corpus.ExperimentSeed()
	w.core = core.Config{Workers: w.cfg.p}
	return nil
}

func (w *learnCold) measure(r *result, secs float64) {
	// One discarded learn lets the heap reach its working size; its
	// store is the reference every timed repetition must reproduce.
	ref, _ := learnStore(w.files, w.seed, w.core)
	var lat sample
	for start := time.Now(); len(lat) == 0 || time.Since(start).Seconds() < secs; {
		runtime.GC()
		var store []byte
		lat = append(lat, int64(timed(func() { store, _ = learnStore(w.files, w.seed, w.core) })))
		r.attempt(sameBytes("learn_cold repetition", store, ref))
	}
	opMetrics(r, batchSlices(lat), 0.75)
}

func (w *learnCold) layers(r *result, tr *tracer) {
	nfiles := float64(len(w.files))

	// The one-call learn: reference output, first-learn time (the heap
	// is still growing) and what it allocates.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var ref []byte
	var res *core.Result
	first := timed(func() { ref, res = learnStore(w.files, w.seed, w.core) })
	runtime.ReadMemStats(&m1)
	r.set("core.first_learn_s", first.Seconds())
	r.set("core.learn_allocs_per_file", float64(m1.Mallocs-m0.Mallocs)/nfiles)
	r.set("core.learn_alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	qualityMetrics(r, res, w.seed, w.corp.Truth)

	// The same learn stage by stage under spans; each staged learn must
	// reproduce the one-call store byte for byte.
	var st *stagedLearn
	var front frontCounts
	const reps = 2
	for i := 0; i < reps; i++ {
		st = stageLearn(tr, w.files, w.seed, w.core, &front)
		r.attempt(sameBytes("staged learn", st.store, ref))
	}
	traceOverhead(r, tr, reps, sample{int64(first)})

	// The parallel front-end as core runs it, for the wall the batch
	// path actually pays and the speed-up P workers give.
	var fe *core.FrontEnd
	tr.do("core.analyze_files", func() { fe = core.AnalyzeFiles(w.files, w.core) })
	r.set("core.frontend_wall_s", fe.Wall.Seconds())
	if w.cfg.p > 1 {
		r.set("core.frontend_speedup", fe.Speedup())
	} else {
		r.na("core.frontend_speedup")
	}

	// Codecs over this run's artefacts.
	var enc []byte
	tr.do("propgraph.encode", func() { enc = st.union.AppendBinary(nil) })
	tr.do("propgraph.decode", func() {
		if _, rest, err := propgraph.DecodeBinary(enc); err != nil || len(rest) != 0 {
			r.fail("propgraph.DecodeBinary of the union graph: %v, %d bytes left", err, len(rest))
		}
	})
	tr.do("specio.decode", func() {
		got, _, err := specio.Decode(bytes.NewReader(ref))
		if err != nil || !specio.Equal(got, res.LearnedSpec(w.seed)) {
			r.fail("specio.Decode does not round-trip the store: %v", err)
		}
	})

	lt := tr.layerTimes()
	frontMetrics(r, lt, front, reps)
	backMetrics(r, lt, st, reps)
	r.set("constraints.build_s", (lt["constraints.build"].total).Seconds()/reps)
	r.set("lp.epochs", float64(st.sol.Iterations))
	solverMetrics(r, lt, st.sol.Iterations*reps, len(st.sys.Problem.Constraints), reps)
	r.set("propgraph.encode_s", (lt["propgraph.encode"].total).Seconds())
	r.set("propgraph.decode_s", (lt["propgraph.decode"].total).Seconds())
	r.set("propgraph.encoded_bytes", float64(len(enc)))
	r.set("specio.decode_s", (lt["specio.decode"].total).Seconds())

	// Scale exponents: the same stages over a quarter of the files.
	small := corpus.Generate(corpus.Config{Files: max(w.cfg.files/4, 1), Seed: w.cfg.seed}).FileMap()
	str := newTracer()
	stageLearn(str, small, w.seed, w.core, new(frontCounts))
	slt := str.layerTimes()
	ratio := math.Log(nfiles / float64(len(small)))
	exponent := func(name string) float64 {
		big, little := lt[name].total.Seconds()/reps, slt[name].total.Seconds()
		if big <= 0 || little <= 0 || ratio == 0 {
			return 0
		}
		return math.Log(big/little) / ratio
	}
	r.set("propgraph.union_scale_exponent", exponent("propgraph.union"))
	r.set("constraints.build_scale_exponent", exponent("constraints.build"))
	r.set("lp.minimize_scale_exponent", exponent("lp.minimize"))

	sources := make([]string, 0, len(w.corp.Files))
	for _, f := range w.corp.Files {
		sources = append(sources, f.Source)
	}
	sizeExponents(r, sources, w.cfg.seed)
	harnessOverhead(r)
}
