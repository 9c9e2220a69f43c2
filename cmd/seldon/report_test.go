package main

import (
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"seldon/internal/corpus"
	"seldon/internal/specio"
)

// stageRows returns the stage names of the "stage timings:" table in a
// learn's stdout, in printed order, without the total.
func stageRows(t *testing.T, stdout string) []string {
	t.Helper()
	_, table, ok := strings.Cut(stdout, "stage timings:\n")
	if !ok {
		t.Fatalf("no stage table in:\n%s", stdout)
	}
	var rows []string
	for _, line := range strings.Split(table, "\n") {
		name, _, _ := strings.Cut(strings.TrimSpace(line), " ")
		if name == "total" {
			return rows
		}
		rows = append(rows, name)
	}
	t.Fatalf("stage table has no total:\n%s", stdout)
	return nil
}

// TestReportReadsTheRegistry: what seldon learn and seldon coordinate
// print about a run is what the run's registry holds, whichever way the
// corpus came in. A session learn over a warm analysis cache reports the
// hits the cache served and the front-end stages it ran; a coordinator's
// table lists the gather once, with the merge inside it and not beside it.
func TestReportReadsTheRegistry(t *testing.T) {
	bin := buildSeldon(t)
	dir := t.TempDir()
	run := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("seldon %s: %v", strings.Join(args, " "), err)
		}
		return string(out)
	}

	session := func(sessionDir string) string {
		return run("learn", "-generate", "40", "-session-dir", sessionDir, "-cache-dir", "cache", "-top", "1")
	}
	session("s1")
	warm := session("s2")
	if !regexp.MustCompile(`(?m)^cache: 40/40 hits`).MatchString(warm) {
		t.Errorf("session learn over a warm cache does not report its hits:\n%s", warm)
	}
	if got, want := stageRows(t, warm), []string{"parse", "dataflow", "cache", "incr.rebuild", "solve", "select"}; !reflect.DeepEqual(got, want) {
		t.Errorf("session learn's stage table lists %v, want %v", got, want)
	}

	for _, i := range []string{"0", "1"} {
		run("shard", "-generate", "40", "-slices", "2", "-slice", i, "-o", "p"+i+".shard")
	}
	if err := specio.Save(filepath.Join(dir, "seed.json"), corpus.ExperimentSeed(), specio.Meta{}); err != nil {
		t.Fatal(err)
	}
	coord := run("coordinate", "-seedfile", "seed.json", "-shards-in", "p*.shard", "-top", "1")
	if got, want := stageRows(t, coord), []string{"shard.decode", "constraints", "solve", "select"}; !reflect.DeepEqual(got, want) {
		t.Errorf("coordinator's stage table lists %v, want %v", got, want)
	}
}
