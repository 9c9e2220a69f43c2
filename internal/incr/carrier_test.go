package incr_test

import (
	"bytes"
	"path/filepath"
	"slices"
	"testing"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/fpcache"
	"seldon/internal/incr"
	"seldon/internal/shard"
	"seldon/internal/specio"
)

// TestOneRecordThroughEveryCarrier: a file's record is one thing whichever
// way it travels. A few files, one with a parse error, are analyzed with a
// cache; shipped in an artifact, encoded, read into a coordinator's cache
// and merged; got back from both caches; and spliced from source into a
// session that is saved and loaded. Name, source hash, parse error and
// graph bytes agree everywhere, and the merge and the session cut the same
// spans and stamp the same fingerprint, the corpus's own.
func TestOneRecordThroughEveryCarrier(t *testing.T) {
	files, _ := testCorpus(t, 5, 9)
	files["zz_broken.py"] = "def broken(:\n    pass\n"
	dir := t.TempDir()
	worker, err := fpcache.Open(filepath.Join(dir, "worker"))
	if err != nil {
		t.Fatal(err)
	}
	coord, err := fpcache.Open(filepath.Join(dir, "coordinator"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Workers: 1, Cache: worker}

	fe := core.AnalyzeFiles(files, cfg)
	want := make([]fpcache.Record, len(fe.Names))
	for i, name := range fe.Names {
		want[i] = fe.Record(i, files[name])
	}
	if got := fpcache.ParseErrorFiles(slices.Values(want)); !slices.Equal(got, []string{"zz_broken.py"}) {
		t.Fatalf("parse errors in %q, want zz_broken.py alone", got)
	}

	// The worker's second front end hits the cache, and its artifact ships
	// the records the first one wrote.
	built, _, err := shard.Build(files, 0, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	art, err := shard.ReadArtifact(bytes.NewReader(built.Encode()), shard.ReadOptions{Cache: coord})
	if err != nil {
		t.Fatal(err)
	}
	m := shard.NewMerger(shard.MergeOptions{})
	if err := m.Commit(art); err != nil {
		t.Fatal(err)
	}
	mres, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}

	seed := corpus.ExperimentSeed()
	sess := incr.NewSession(seed, core.Config{Workers: 1})
	sess.SpliceSources(files)
	if err := sess.SaveDir(filepath.Join(dir, "session")); err != nil {
		t.Fatal(err)
	}
	loaded, err := incr.LoadDir(filepath.Join(dir, "session"), seed, core.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	same := func(carrier string, got, w fpcache.Record, graph bool) {
		t.Helper()
		if got.Name != w.Name || got.Source != w.Source || got.ParseError != w.ParseError ||
			graph && !bytes.Equal(got.Graph, w.Graph) {
			t.Errorf("%s: record of %s differs", carrier, w.Name)
		}
	}
	if len(art.Files) != len(want) || len(mres.Files) != len(want) {
		t.Fatalf("%d files in the artifact, %d merged, want %d", len(art.Files), len(mres.Files), len(want))
	}
	for i, w := range want {
		same("artifact", art.Files[i].Record, w, true)
		same("merge", mres.Files[i], w, false)
		rec, _ := loaded.Record(w.Name)
		same("session", rec, w, true)
		for name, c := range map[string]*fpcache.Cache{"worker cache": worker, "coordinator cache": coord} {
			e, ok := c.Get(w.Name, files[w.Name])
			if !ok {
				t.Fatalf("%s: miss for %s", name, w.Name)
			}
			same(name, fpcache.Record{Name: w.Name, Source: w.Source, ParseError: e.ParseError,
				Graph: e.Graph.AppendBinary(nil)}, w, true)
		}
	}

	res, _ := loaded.Relearn()
	if got := fpcache.ParseErrorFiles(slices.Values(mres.Files)); !slices.Equal(got, res.ParseErrorFiles) {
		t.Errorf("merge reports parse errors in %q, the session in %q", got, res.ParseErrorFiles)
	}
	if !slices.Equal(mres.Spans, loaded.Spans()) {
		t.Errorf("merge spans %v, session spans %v", mres.Spans, loaded.Spans())
	}
	fp := specio.Fingerprint(files)
	if mres.CorpusFingerprint != fp || loaded.CorpusFingerprint() != fp {
		t.Errorf("fingerprints: merge %s, session %s, corpus %s", mres.CorpusFingerprint, loaded.CorpusFingerprint(), fp)
	}
}
