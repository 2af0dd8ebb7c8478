package treeaa

// Runtime smoke tests for the cmd/ binaries (skipped with -short): every
// tool must run a small case to completion and print its key lines, and
// misuse must fail loudly. The doc-rot test keeps the prose pointing at binaries and make
// targets that exist.

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
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
		fails bool // the command must exit non-zero
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
			name:  "treeaa omission over tcp transport",
			args:  []string{"run", "./cmd/treeaa", "-tree", "path:24", "-n", "4", "-t", "1", "-adversary", "omit(drop=300)", "-transport", "tcp", "-q"},
			wants: []string{"1-agreement: true"},
		},
		{
			name: "treeaa over tcp transport under a link fault",
			args: []string{"run", "./cmd/treeaa", "-tree", "path:24", "-n", "4", "-t", "1",
				"-adversary", "splitvote+drop(from=0,to=2,round=2)", "-transport", "tcp", "-q"},
			wants: []string{"chaos: injected 0 delays / 0 stalls / 1 drops", "1-agreement: true"},
		},
		{
			name:  "treeaa refuses a link clause outside the run",
			args:  []string{"run", "./cmd/treeaa", "-n", "4", "-t", "1", "-transport", "tcp", "-adversary", "drop(from=9,round=1)"},
			fails: true,
			wants: []string{"treeaa: adversary clause drop(from=9,round=1): party 9 out of range [0, 4)"},
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
			name: "node cluster with an omission seat beside the adversary host",
			args: []string{"run", "./cmd/node", "-cluster", "7", "-t", "2", "-tree", "path:40",
				"-adversary", "splitvote+omit(halves=1)"},
			wants: []string{"role=omission", "role=adversary", "1-agreement: true"},
		},
		{
			name: "node cluster under chaos",
			args: []string{"run", "./cmd/node", "-cluster", "7", "-t", "2", "-tree", "path:16",
				"-adversary", "splitvote+stop(rounds=2)+lat(base=200us,jitter=200us)+drop(from=0,to=2,round=2)"},
			wants: []string{"chaos:", "1 drops", "role=omission", "1-agreement: true"},
		},
		{
			name:  "node async graph fleet",
			args:  []string{"run", "./cmd/node", "-cluster", "4", "-t", "1", "-tree", "graph:cliquechain:3:4", "-mode", "async"},
			wants: []string{"party (async)", "1-agreement: true"},
		},
		{
			name:  "node cluster refuses crash before spawning",
			args:  []string{"run", "./cmd/node", "-cluster", "4", "-t", "1", "-tree", "path:16", "-adversary", "crash"},
			fails: true,
			wants: []string{"node: nothing spawned: the crash adversary corrupts adaptively"},
		},
		{
			name:  "node cluster refuses an async adversary before spawning",
			args:  []string{"run", "./cmd/node", "-cluster", "4", "-t", "1", "-tree", "path:16", "-mode", "async", "-adversary", "splitvote"},
			fails: true,
			wants: []string{"node: nothing spawned: party 0: transport: event-driven seats run honest fleets only"},
		},
		{
			name:  "serve async rolling restart",
			args:  []string{"run", "./cmd/serve", "-cluster", "3", "-rolling", "-mode", "async", "-sessions", "4", "-tree", "star:6"},
			wants: []string{"over 3 journaled daemons", "0 mismatches"},
		},
		{
			name: "check cells under link faults",
			args: []string{"run", "./cmd/check", "-json", "-tcp-every", "1", "-async-every", "0", "-cells",
				"s=1;tree=path:12;n=4;t=1;in=spread;adv=lat(base=200us,jitter=200us)|s=1;tree=path:12;n=4;t=1;in=spread;adv=drop(from=0,to=2,round=2)"},
			wants: []string{`adv=lat(base=200us,jitter=200us)","rounds":`, `"tcpChecked":true,"linkFaults":1}`},
		},
		{
			name:  "check repro refuses a bad link clause",
			args:  []string{"run", "./cmd/check", "-repro", "s=1;tree=path:12;n=4;t=1;in=spread;adv=drop(from=0,to=0,round=2)"},
			fails: true,
			wants: []string{"link 0→0 is not a connection"},
		},
		{
			name:  "check repro prints the schedule",
			args:  []string{"run", "./cmd/check", "-repro", "s=7;tree=path:12;n=4;t=0;in=spread;adv=lat(base=1ms,jitter=1ms)+drop(from=0,to=1,round=2)"},
			wants: []string{"chaos plan", "seed 7", "drop p0->p1 at round 2", "1 cells explored", "0 violated"},
		},
		{
			name:  "experiments E3",
			args:  []string{"run", "./cmd/experiments", "E3"},
			wants: []string{"minimal rounds forced", "chain-of-views", "force outputs 500.0 apart"},
		},
		{
			name:  "experiments unknown id",
			args:  []string{"run", "./cmd/experiments", "E99"},
			fails: true,
			wants: []string{`unknown experiment "E99"`, "E1 E1b E2 E3 E4 E5b E5c E6 E8 E9 F-B"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command("go", tc.args...).CombinedOutput()
			if failed := err != nil; failed != tc.fails {
				t.Fatalf("%v: exit error %v, want failure %v\n%s", tc.args, err, tc.fails, out)
			}
			for _, want := range tc.wants {
				if !strings.Contains(string(out), want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
		})
	}
}

// TestBinariesLinkNoOverlay: no shipped binary deploys the tree overlay. Its
// interior relays are trusted completely, which puts it outside the paper's
// model; internal/overlay is a substrate only the benchmark runs, in process.
func TestBinariesLinkNoOverlay(t *testing.T) {
	if testing.Short() {
		t.Skip("go list spawns a subprocess; skipped with -short")
	}
	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}} {{join .Deps " "}}`, "./cmd/...").Output()
	if err != nil {
		t.Fatalf("go list ./cmd/...: %v", err)
	}
	bins := strings.Split(strings.TrimSpace(string(out)), "\n")
	if mains, _ := filepath.Glob("cmd/*/main.go"); len(bins) != len(mains) {
		t.Fatalf("go list ./cmd/... named %d binaries, want %d:\n%s", len(bins), len(mains), out)
	}
	for _, line := range bins {
		bin, deps, _ := strings.Cut(line, " ")
		if slices.Contains(strings.Fields(deps), "treeaa/internal/overlay") {
			t.Errorf("%s links treeaa/internal/overlay", bin)
		}
	}
}

// TestDocsNameExistingCommands is the doc-rot gate: every cmd/<name> binary
// and every `make <target>` the documentation, the verify skill or the
// Makefile's own recipes name must exist, and so must every flag a binary's
// package-doc examples pass it.
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

	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	flagRe := regexp.MustCompile(`(?m)^  -([a-z][a-z0-9-]*)`)
	for _, main := range mains {
		name := filepath.Base(filepath.Dir(main))
		src, err := os.ReadFile(main)
		if err != nil {
			t.Fatal(err)
		}
		doc, _, _ := strings.Cut(string(src), "\npackage main")
		exampleRe := regexp.MustCompile(`(?m)^//\t` + regexp.QuoteMeta(name) + `( .*)?$`)
		examples := exampleRe.FindAllString(doc, -1)
		if len(examples) == 0 {
			continue
		}
		help, _ := exec.Command(filepath.Join(bin, name), "-h").CombinedOutput()
		flags := make(map[string]bool)
		for _, m := range flagRe.FindAllStringSubmatch(string(help), -1) {
			flags[m[1]] = true
		}
		for _, line := range examples {
			line, _, _ = strings.Cut(line, " #")
			for _, field := range strings.Fields(line) {
				if f, ok := strings.CutPrefix(field, "-"); ok && !flags[f] {
					t.Errorf("cmd/%s's package doc runs %q, but -%s is not one of its flags", name, line, f)
				}
			}
		}
	}
}
