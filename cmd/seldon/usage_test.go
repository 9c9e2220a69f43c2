package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// refused runs a subcommand in-process and requires it to refuse its
// arguments before doing any work, with a usage error (exit status 2)
// that names the stray input.
func refused(t *testing.T, run func([]string) error, stray string, args ...string) {
	t.Helper()
	err := run(args)
	if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), stray) {
		t.Fatalf("%v: %v, want a usage error naming %s", args, err, stray)
	}
}

// TestLearnRefusesPaths: learn reads -dir or -generate, so a .py path
// beside them would be learned without.
func TestLearnRefusesPaths(t *testing.T) {
	refused(t, learn, "bogus.py", "-generate", "40", "bogus.py")
}

// TestShardRefusesPaths: a worker's slice comes from -dir or -generate; a
// path would not be in it.
func TestShardRefusesPaths(t *testing.T) {
	refused(t, shardWorker, "bogus.py", "-generate", "40", "-o", "/dev/null", "bogus.py")
}

// TestCoordinateRefusesPaths: a coordinator reads artifacts from
// -shards-in, never source paths.
func TestCoordinateRefusesPaths(t *testing.T) {
	refused(t, coordinate, "stray.py", "-shards-in", "s*.shard", "stray.py")
}

// TestCoordinateRefusesDir: a coordinator analyzes no corpus, so it
// registers no -dir, and flag refuses one as a usage error (exit 2).
func TestCoordinateRefusesDir(t *testing.T) {
	_, stderr, status := seldonIn(t, buildSeldon(t), t.TempDir(), "coordinate", "-shards-in", "s*.shard", "-dir", "/nonexistent/dir")
	if status != 2 || !strings.Contains(stderr, "flag provided but not defined: -dir") {
		t.Fatalf("coordinate -dir: exit %d, stderr %q; want 2 and flag's refusal of -dir", status, stderr)
	}
}

// TestLearnRefusesNonPositiveKnobs: the pipeline reads a learning
// parameter of 0 as "use the default", so learn and coordinate refuse a
// value that is not positive rather than run with another one.
func TestLearnRefusesNonPositiveKnobs(t *testing.T) {
	for _, knob := range []struct{ flag, value string }{
		{"-threshold", "0"},
		{"-lambda", "-0.5"},
		{"-c", "0"},
	} {
		t.Run(knob.flag[1:], func(t *testing.T) {
			refused(t, learn, knob.flag, "-generate", "40", knob.flag, knob.value)
			refused(t, coordinate, knob.flag, "-shards-in", "s*.shard", knob.flag, knob.value)
		})
	}
}

// emptyFile is a zero-byte file in a fresh temporary directory.
func emptyFile(t *testing.T) string {
	path := filepath.Join(t.TempDir(), "empty.spec")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckRefusesEmptySpec: a zero-byte -spec has no role entry to check
// against, so check refuses it, naming the file, rather than report no
// flow and exit 0 as a clean check does.
func TestCheckRefusesEmptySpec(t *testing.T) {
	path := emptyFile(t)
	if err := check([]string{"-generate", "3", "-spec", path}); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("check -spec of a zero-byte file: %v, want an error naming %s", err, path)
	}
}

// TestLearnRefusesEmptySeedfile: a zero-byte -seedfile seeds nothing, so
// learn refuses it, naming the file, rather than learn with no seed.
func TestLearnRefusesEmptySeedfile(t *testing.T) {
	path := emptyFile(t)
	if err := learn([]string{"-generate", "40", "-seedfile", path}); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("learn -seedfile of a zero-byte file: %v, want an error naming %s", err, path)
	}
}
