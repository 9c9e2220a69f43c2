package main

import (
	"errors"
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

// TestCoordinateRefusesDir: a coordinator analyzes no corpus, so -dir,
// which its input flags register, has nothing to say to it.
func TestCoordinateRefusesDir(t *testing.T) {
	refused(t, coordinate, "/nonexistent/dir", "-shards-in", "s*.shard", "-dir", "/nonexistent/dir")
}
