package treeaa

// Runtime smoke tests for the cmd/ binaries (skipped with -short): every
// tool must run its default experiment to completion and print its key
// sections. The doc-rot test keeps the prose pointing at binaries and make
// targets that exist.

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

func TestCommandsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("commands spawn subprocesses; skipped with -short")
	}
	cases := []struct {
		name  string
		args  []string
		wants []string
	}{
		{
			name:  "treeaa default",
			args:  []string{"run", "./cmd/treeaa", "-tree", "figure3", "-n", "4", "-t", "1", "-q"},
			wants: []string{"1-agreement: true", "honest hull"},
		},
		{
			name:  "treeaa halfburn on a path (shortcut phase)",
			args:  []string{"run", "./cmd/treeaa", "-tree", "path:30", "-n", "7", "-t", "2", "-adversary", "halfburn", "-q"},
			wants: []string{"1-agreement: true"},
		},
		{
			name:  "treeaa over tcp transport",
			args:  []string{"run", "./cmd/treeaa", "-tree", "path:24", "-n", "4", "-t", "1", "-adversary", "splitvote", "-transport", "tcp", "-q"},
			wants: []string{"1-agreement: true"},
		},
		{
			name:  "treeaa over the tree overlay",
			args:  []string{"run", "./cmd/treeaa", "-tree", "path:24", "-n", "7", "-t", "2", "-transport", "tree:2", "-q"},
			wants: []string{"1-agreement: true"},
		},
		{
			name:  "node loopback cluster",
			args:  []string{"run", "./cmd/node", "-cluster", "3", "-tree", "path:16"},
			wants: []string{"1-agreement: true"},
		},
		{
			name:  "node cluster with adversary host",
			args:  []string{"run", "./cmd/node", "-cluster", "7", "-t", "2", "-tree", "path:40", "-adversary", "splitvote"},
			wants: []string{"role=adversary", "1-agreement: true"},
		},
		{
			name: "node cluster under chaos",
			args: []string{"run", "./cmd/node", "-cluster", "4", "-t", "1", "-tree", "path:16",
				"-adversary", "splitvote", "-chaos", "lat:200µs±200µs,crash:p1@r2"},
			wants: []string{"chaos:", "1 crashes", "1-agreement: true"},
		},
		{
			name:  "node graph fleet over the tree overlay",
			args:  []string{"run", "./cmd/node", "-cluster", "4", "-t", "1", "-tree", "graph:cliquechain:3:4", "-overlay", "tree:2"},
			wants: []string{"overlay:", "1-agreement: true"},
		},
		{
			name:  "node async graph fleet",
			args:  []string{"run", "./cmd/node", "-cluster", "4", "-t", "1", "-tree", "graph:cliquechain:3:4", "-mode", "async"},
			wants: []string{"party (async)", "1-agreement: true"},
		},
		{
			name:  "serve async rolling restart",
			args:  []string{"run", "./cmd/serve", "-cluster", "3", "-rolling", "-mode", "async", "-sessions", "4", "-tree", "star:6"},
			wants: []string{"over 3 journaled daemons", "0 mismatches"},
		},
		{
			name: "chaos soak tiny matrix",
			args: []string{"run", "./cmd/chaos", "-seeds", "1", "-plans", "lat:200µs±200µs;drop:p0-p2@r2",
				"-adversaries", "none", "-trees", "path:12"},
			wants: []string{"oracle", "pass", "2 cells, 0 failed"},
		},
		{
			name:  "chaos help exits zero",
			args:  []string{"run", "./cmd/chaos", "-help"},
			wants: []string{"Usage", "-plans"},
		},
		{
			name:  "chaos schedule print",
			args:  []string{"run", "./cmd/chaos", "-schedule", "-plans", "lat:1ms±1ms,crash:p1@r2", "-seeds", "7"},
			wants: []string{"chaos plan", "seed 7", "crash p1 at round 2"},
		},
		{
			name:  "bench-rounds",
			args:  []string{"run", "./cmd/bench-rounds", "-sizes", "64,256", "-family", "caterpillar"},
			wants: []string{"treeaa_norm", "caterpillar"},
		},
		{
			name:  "bench-rounds csv",
			args:  []string{"run", "./cmd/bench-rounds", "-sizes", "64", "-family", "path", "-csv"},
			wants: []string{"family,V,D"},
		},
		{
			name:  "lowerbound",
			args:  []string{"run", "./cmd/lowerbound", "-n", "7", "-t", "2"},
			wants: []string{"minimal rounds forced", "chain-of-views"},
		},
		{
			name:  "adversary-eval",
			args:  []string{"run", "./cmd/adversary-eval", "-n", "7", "-t", "2", "-d", "1000", "-tree", "spider:3:8"},
			wants: []string{"halfburn", "splitvote", "correctness matrix"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command("go", tc.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("%v failed: %v\n%s", tc.args, err, out)
			}
			for _, want := range tc.wants {
				if !strings.Contains(string(out), want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
		})
	}
}

// TestDocsNameExistingCommands is the doc-rot gate: every cmd/<name> binary
// and every `make <target>` the documentation, the verify skill or the
// Makefile's own recipes name must exist.
func TestDocsNameExistingCommands(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := make(map[string]bool)
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllSubmatch(mk, -1) {
		targets[string(m[1])] = true
	}
	cmdRe := regexp.MustCompile(`\bcmd/([a-z][a-z0-9-]*)`)
	// In backticks, or alone on a code-block line (a trailing # comment aside).
	makeRe := regexp.MustCompile("(?m)`make ([a-z][a-z0-9-]*)|^\\s*make ([a-z][a-z0-9-]*)\\s*(?:#.*)?$")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md", "Makefile"} {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cmdRe.FindAllSubmatch(body, -1) {
			if st, err := os.Stat("cmd/" + string(m[1])); err != nil || !st.IsDir() {
				t.Errorf("%s names cmd/%s, which does not exist", doc, m[1])
			}
		}
		for _, m := range makeRe.FindAllSubmatch(body, -1) {
			if target := string(m[1]) + string(m[2]); !targets[target] {
				t.Errorf("%s names `make %s`, which is not a Makefile target", doc, target)
			}
		}
	}
}
