package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/envelope"
	"seldon/internal/incr"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
	"seldon/internal/specio"
)

// seldonIn runs the seldon binary in dir and returns its stdout, its
// stderr and its exit status.
func seldonIn(t *testing.T, bin, dir string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	status := 0
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("running seldon %v: %v", args, err)
		}
		status = exit.ExitCode()
	}
	return stdout.String(), stderr.String(), status
}

// TestLearnKeepsSeedSinkArgs: a seed sink restricted to its first
// argument (`i: rep @0`) stays restricted in both outputs of a learn, the
// -out specification and the -o store, so `seldon check -spec` and
// seldond do not report flows into the positions the seed excluded.
func TestLearnKeepsSeedSinkArgs(t *testing.T) {
	bin, dir := buildSeldon(t), t.TempDir()
	seed := corpus.ArgSensitiveSeed()
	if err := os.WriteFile(filepath.Join(dir, "seed.spec"), []byte(seed.Format()), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, stderr, status := seldonIn(t, bin, dir, "learn", "-generate", "40", "-seedfile", "seed.spec",
		"-out", "learned.spec", "-o", "store.json"); status != 0 {
		t.Fatalf("seldon learn: exit %d\n%s", status, stderr)
	}
	text, err := os.ReadFile(filepath.Join(dir, "learned.spec"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := spec.Parse(string(text))
	if err != nil {
		t.Fatal(err)
	}
	store, _, err := specio.Load(filepath.Join(dir, "store.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(seed.Sinks) == 0 {
		t.Fatal("the argument-sensitive seed has no sinks")
	}
	for _, rep := range seed.Sinks {
		if !strings.Contains(string(text), "i: "+rep+" @0\n") {
			t.Errorf("-out lost the restriction of %s", rep)
		}
		for name, s := range map[string]*spec.Spec{"-out": out, "-o": store} {
			if got := s.SinkArgsOf(rep); len(got) != 1 || got[0] != 0 {
				t.Errorf("%s: args of %s = %v, want [0]", name, rep, got)
			}
		}
	}
}

// TestLearnFeedbackFile replays a -feedback file into a session: an
// accept pins a sub-threshold sink candidate into the store, a reject
// pins a learned entry out of it, and a verdict on a seed entry is
// skipped. The pins persist in the session directory, so the next run
// there, with no -feedback, learns the same. A bad role, a bad verdict
// and an empty symbol are each refused, naming the entry.
func TestLearnFeedbackFile(t *testing.T) {
	bin, dir := buildSeldon(t), t.TempDir()
	seed := corpus.ExperimentSeed()
	res := core.LearnFromSources(corpus.Generate(corpus.Config{Files: 40}).FileMap(), seed, core.Config{Workers: 1})
	rejected := res.LearnedEntries(seed)[0]
	learned := res.LearnedSpec(seed)
	accepted := ""
	for i, v := range res.System.Vars {
		if v.Role == propgraph.Sink && !learned.RolesOf(v.Rep).Has(propgraph.Sink) && res.Solution[i] < 0.1 {
			accepted = v.Rep
			break
		}
	}
	if accepted == "" {
		t.Fatal("no sub-threshold sink candidate in the corpus")
	}
	write := func(name string, vs ...incr.Verdict) {
		t.Helper()
		data, err := json.Marshal(vs)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("verdicts.json",
		incr.Verdict{Symbol: accepted, Role: "sink", Verdict: "accept"},
		incr.Verdict{Symbol: rejected.Rep, Role: rejected.Role.String(), Verdict: "reject"},
		incr.Verdict{Symbol: seed.Sinks[0], Role: "sink", Verdict: "reject"})

	learn := func(store string, extra ...string) string {
		t.Helper()
		stdout, stderr, status := seldonIn(t, bin, dir,
			append([]string{"learn", "-generate", "40", "-session-dir", "sess", "-o", store}, extra...)...)
		if status != 0 {
			t.Fatalf("seldon learn %v: exit %d\n%s", extra, status, stderr)
		}
		s, _, err := specio.Load(filepath.Join(dir, store))
		if err != nil {
			t.Fatal(err)
		}
		if !s.RolesOf(accepted).Has(propgraph.Sink) {
			t.Errorf("%s: accepted sink %s missing", store, accepted)
		}
		if s.RolesOf(rejected.Rep).Has(rejected.Role) {
			t.Errorf("%s: rejected %s %s still there", store, rejected.Role, rejected.Rep)
		}
		return stdout
	}
	if out := learn("first.json", "-feedback", "verdicts.json"); !strings.Contains(out, ", 2 feedback pins, 1 verdicts skipped as seed entries") {
		t.Errorf("feedback run does not report 2 pins and 1 skipped:\n%s", out)
	}
	learn("second.json")
	sess, err := incr.LoadDir(filepath.Join(dir, "sess"), nil, core.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Pins() != 2 {
		t.Errorf("the session directory holds %d pins, want 2", sess.Pins())
	}

	good := incr.Verdict{Symbol: accepted, Role: "sink", Verdict: "accept"}
	for _, tc := range []struct {
		bad  incr.Verdict
		want string
	}{
		{incr.Verdict{Symbol: accepted, Role: "laundry", Verdict: "accept"}, "role must be"},
		{incr.Verdict{Symbol: accepted, Role: "sink", Verdict: "maybe"}, "verdict must be"},
		{incr.Verdict{Role: "sink", Verdict: "reject"}, "empty symbol"},
	} {
		write("bad.json", good, tc.bad)
		_, stderr, status := seldonIn(t, bin, dir, "learn", "-generate", "40", "-feedback", "bad.json")
		if status != 1 || !strings.Contains(stderr, "bad.json entry 1: "+tc.want) {
			t.Errorf("verdict %+v: exit %d, stderr %q; want 1 and the entry named", tc.bad, status, stderr)
		}
	}
}

// TestSessionLearnKeepsParseErrors: a session learn of the check corpus,
// cold and then resumed from its directory, reports the files whose parse
// failed as a from-scratch learn of it does.
func TestSessionLearnKeepsParseErrors(t *testing.T) {
	files, err := (&inputFlags{dir: filepath.Join("testdata", "check", "corpus")}).files(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := core.LearnFromSources(files, spec.Seed(), core.Config{}).ParseErrorFiles
	if len(want) == 0 {
		t.Fatal("the check corpus has no parse error")
	}
	dir := t.TempDir()
	for _, mode := range []string{"cold", "resumed"} {
		res, err := runSession(dir, "", files, spec.Seed(), core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.ParseErrorFiles, want) {
			t.Errorf("%s session: parse errors in %q, want %q", mode, res.ParseErrorFiles, want)
		}
	}
}

// TestSessionLearnStartsColdOverAnotherVersion: a session directory whose
// state.bin is of format version 3, which also kept the backoff decay,
// the component bound and a cold-solve epoch count, is not resumed:
// seldon learn says why on stderr, learns cold, and the state it saves
// resumes the next run.
func TestSessionLearnStartsColdOverAnotherVersion(t *testing.T) {
	bin, dir := buildSeldon(t), t.TempDir()
	learn := func() (string, string) {
		t.Helper()
		stdout, stderr, status := seldonIn(t, bin, dir, "learn", "-generate", "40", "-session-dir", "sess", "-top", "1")
		if status != 0 {
			t.Fatalf("seldon learn: exit %d\n%s", status, stderr)
		}
		return stdout, stderr
	}
	learn()
	path := filepath.Join(dir, "sess", incr.StateFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Clone(data[:len(data)-envelope.ChecksumSize])
	binary.LittleEndian.PutUint64(body[len("SINC"):], 3) // the version follows the magic
	if err := os.WriteFile(path, envelope.Seal(body), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr := learn()
	if !strings.Contains(stderr, "session unusable (incr: state version 3, want 4), starting cold") ||
		!strings.Contains(stdout, "session sess (cold)") {
		t.Errorf("over a version-3 state.bin:\nstdout %s\nstderr %s", stdout, stderr)
	}
	if stdout, _ := learn(); !strings.Contains(stdout, "session sess (resumed)") {
		t.Errorf("the state saved after a cold start does not resume:\n%s", stdout)
	}
}
