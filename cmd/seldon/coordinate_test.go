package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/shard"
	"seldon/internal/specio"
)

// TestShardedLearnIsSingleProcessLearn is the distributed-learning
// determinism oracle over real processes: a 400-file corpus on disk,
// analyzed by three concurrent `seldon shard` processes sharing one
// -cache-dir and merged by `seldon coordinate -shards-in`, must give the
// store `seldon learn` writes for the same corpus, byte for byte. At 400
// files each artifact's graph sections pass the size from which they are
// decoded on several goroutines, so a second coordination under
// GOMAXPROCS=1 holds them to the one-goroutine answer. The first
// coordination ingests the artifacts' records into its -cache-dir — the
// path for workers sharing no disk with the coordinator, which need no
// flag of their own for it — and a learn over that directory must hit on
// every file and write the same store. Any drift in slicing, the codec,
// symbol translation, the ingested cache keys or the merge fails here.
func TestShardedLearnIsSingleProcessLearn(t *testing.T) {
	bin := buildSeldon(t)
	dir := t.TempDir()
	for _, f := range corpus.Generate(corpus.Config{Files: 400}).Files {
		path := filepath.Join(dir, "corpus", f.Name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(f.Source), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := specio.Save(filepath.Join(dir, "seed.json"), corpus.ExperimentSeed(), specio.Meta{}); err != nil {
		t.Fatal(err)
	}
	// start runs seldon in dir with extra environment; wait fails the test
	// on a nonzero exit and returns stdout and stderr.
	type proc struct {
		cmd            *exec.Cmd
		stdout, stderr bytes.Buffer
	}
	start := func(env []string, args ...string) *proc {
		t.Helper()
		p := &proc{cmd: exec.Command(bin, args...)}
		p.cmd.Dir = dir
		p.cmd.Env = append(os.Environ(), env...)
		p.cmd.Stdout, p.cmd.Stderr = &p.stdout, &p.stderr
		if err := p.cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return p
	}
	wait := func(p *proc) (string, string) {
		t.Helper()
		if err := p.cmd.Wait(); err != nil {
			t.Fatalf("%s: %v\n%s", strings.Join(p.cmd.Args, " "), err, p.stderr.Bytes())
		}
		return p.stdout.String(), p.stderr.String()
	}
	run := func(env []string, args ...string) (string, string) {
		t.Helper()
		return wait(start(env, args...))
	}
	learn := func(out string, extra ...string) string {
		t.Helper()
		stdout, _ := run(nil, append([]string{"learn", "-dir", "corpus", "-seedfile", "seed.json", "-o", out}, extra...)...)
		return stdout
	}
	coordinate := func(env []string, out string, extra ...string) {
		t.Helper()
		run(env, append([]string{"coordinate", "-shards-in", "p*.shard", "-seedfile", "seed.json", "-o", out}, extra...)...)
	}
	same := func(a, b string) {
		t.Helper()
		x, err := os.ReadFile(filepath.Join(dir, a))
		if err != nil {
			t.Fatal(err)
		}
		y, err := os.ReadFile(filepath.Join(dir, b))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x, y) {
			t.Errorf("%s and %s differ", a, b)
		}
	}

	learn("single.json")
	var workers []*proc
	for _, i := range []string{"0", "1", "2"} {
		workers = append(workers, start(nil, "shard", "-dir", "corpus", "-slices", "3", "-slice", i,
			"-cache-dir", "workers", "-o", "p"+i+".shard"))
	}
	for _, w := range workers {
		wait(w)
	}
	coordinate(nil, "dist.json", "-cache-dir", "ingest")
	same("single.json", "dist.json")
	coordinate([]string{"GOMAXPROCS=1"}, "dist1.json")
	same("dist.json", "dist1.json")

	if out := learn("ingest.json", "-cache-dir", "ingest"); !regexp.MustCompile(`(?m)^cache: 400/400 hits`).MatchString(out) {
		t.Errorf("learn over the ingested records did not hit on every file:\n%s", out)
	}
	same("single.json", "ingest.json")
}

// TestReadShardsNamesTheFile: a -shards-in glob is a list of paths, so a
// fault the merge finds — not only one the decoder finds — must say which
// path it was reading. q1.shard repeats slice 1 under another name;
// stale.shard is slice 1 as an older front-end would have written it.
func TestReadShardsNamesTheFile(t *testing.T) {
	files := corpus.Generate(corpus.Config{Files: 8}).FileMap()
	dir := t.TempDir()
	write := func(name string, slice int, analyzer string) string {
		a, _, err := shard.BuildFromCorpus(files, slice, 2, core.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if analyzer != "" {
			a.AnalyzerVersion = analyzer
		}
		path := filepath.Join(dir, name)
		if _, err := shard.WriteFile(path, a); err != nil {
			t.Fatal(err)
		}
		return path
	}
	p0, p1 := write("p0.shard", 0, ""), write("p1.shard", 1, "")
	q1, stale := write("q1.shard", 1, ""), write("stale.shard", 1, "seldon-frontend-v0")

	if _, err := readShards([]string{p0, p1}, shard.ReadOptions{}, shard.MergeOptions{}); err != nil {
		t.Fatalf("readShards over a complete set: %v", err)
	}
	for _, tc := range []struct {
		paths []string
		want  error
		named string
	}{
		{[]string{p0, p1, q1}, shard.ErrDuplicateSlice, "q1.shard"},
		{[]string{p0, stale}, shard.ErrAnalyzerVersion, "stale.shard"},
	} {
		_, err := readShards(tc.paths, shard.ReadOptions{}, shard.MergeOptions{})
		if !errors.Is(err, tc.want) {
			t.Errorf("readShards = %v, want %v", err, tc.want)
		} else if !strings.Contains(err.Error(), tc.named) {
			t.Errorf("readShards = %q, which does not name %s", err, tc.named)
		}
	}
}
