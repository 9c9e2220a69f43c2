package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// readmeCommand starts a command line of one of the two binaries.
	readmeCommand = regexp.MustCompile(`\b(seldond|seldon (?:learn|coordinate|shard|check|graph))\b([^#|;&<>)` + "`" + `]*)`)
	// readmeFlag is a flag a command line passes.
	readmeFlag = regexp.MustCompile(`(?:^|\s)--?([A-Za-z][\w-]*)`)
	// inlineCode is a code span in prose.
	inlineCode = regexp.MustCompile("`([^`]+)`")
	// helpFlag is a flag as flag's -h lists it.
	helpFlag = regexp.MustCompile(`(?m)^  -([\w-]+)`)
)

// readmeSnippets returns README text that holds commands: each line of a
// fenced code block, \-continued lines joined, and each inline code span.
func readmeSnippets(readme string) []string {
	var snippets []string
	var prose strings.Builder
	inFence := false
	for _, line := range strings.Split(strings.ReplaceAll(readme, "\\\n", " "), "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			inFence = !inFence
		case inFence:
			snippets = append(snippets, line)
		default:
			prose.WriteString(line + " ")
		}
	}
	for _, m := range inlineCode.FindAllStringSubmatch(prose.String(), -1) {
		snippets = append(snippets, m[1])
	}
	return snippets
}

// TestReadmeFlagsAreRegistered: every -flag that a `seldon <subcommand>`
// or `seldond` command line in README.md passes is one that binary
// registers there, as its -h lists them, so the README teaches no flag
// the program refuses.
func TestReadmeFlagsAreRegistered(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	bins := map[string]string{"seldon": buildSeldon(t), "seldond": filepath.Join(t.TempDir(), "seldond")}
	if out, err := exec.Command("go", "build", "-o", bins["seldond"], "../seldond").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	registered := map[string]map[string]bool{} // command → its flags
	for _, snippet := range readmeSnippets(string(readme)) {
		for _, m := range readmeCommand.FindAllStringSubmatch(snippet, -1) {
			cmd := m[1]
			if registered[cmd] == nil {
				args := strings.Fields(cmd)
				out, _ := exec.Command(bins[args[0]], append(args[1:], "-h")...).CombinedOutput()
				registered[cmd] = map[string]bool{"h": true, "help": true}
				for _, f := range helpFlag.FindAllStringSubmatch(string(out), -1) {
					registered[cmd][f[1]] = true
				}
				if len(registered[cmd]) == 2 {
					t.Fatalf("%s -h lists no flags:\n%s", cmd, out)
				}
			}
			for _, f := range readmeFlag.FindAllStringSubmatch(m[2], -1) {
				if !registered[cmd][f[1]] {
					t.Errorf("README.md: %s%s: %s registers no -%s", cmd, m[2], cmd, f[1])
				}
			}
		}
	}
	for _, cmd := range []string{"seldon learn", "seldon coordinate", "seldon shard", "seldon check", "seldon graph", "seldond"} {
		if registered[cmd] == nil {
			t.Errorf("README.md shows no %s command line", cmd)
		}
	}
}
