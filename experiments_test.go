package treeaa

// The paper's tables are pinned twice: every entry of the experiment
// catalog (internal/experiments) must render byte-identically to
// testdata/experiments/<id>.txt, and every block of EXPERIMENTS.md marked
// `<!-- golden: <id> -->` must equal that golden. A protocol change that
// moves a paper number fails both; regenerate the goldens and the marked
// blocks with
//
//	go test -run TestExperiment -update .
//
// and review the diff like a change to the paper's results.

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"treeaa/internal/experiments"
)

func experimentGolden(id string) string {
	return filepath.Join("testdata", "experiments", id+".txt")
}

// firstLineDiff names the first line where got and want differ.
func firstLineDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n  got  %q\n  want %q", i+1, gl, wl)
		}
	}
	return "no line differs"
}

func TestExperimentGoldens(t *testing.T) {
	for _, e := range experiments.Catalog() {
		t.Run(e.ID, func(t *testing.T) {
			var b strings.Builder
			if err := e.Render(&b); err != nil {
				t.Fatal(err)
			}
			got, path := b.String(), experimentGolden(e.ID)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s changed (regenerate with -update if intentional), %s", e.ID, firstLineDiff(got, string(want)))
			}
		})
	}
}

// goldenBlock matches a marked block of EXPERIMENTS.md: the marker line,
// then a fenced block whose body is the golden's text.
var goldenBlock = regexp.MustCompile("(?m)^<!-- golden: (\\S+) -->\n```\n((?s:.*?))```$")

// TestExperimentDocBlocks is the doc gate: every marked block of
// EXPERIMENTS.md equals its golden, and every catalog entry has a block.
func TestExperimentDocBlocks(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	shown := make(map[string]bool)
	out := goldenBlock.ReplaceAllStringFunc(string(doc), func(block string) string {
		m := goldenBlock.FindStringSubmatch(block)
		id, body := m[1], m[2]
		shown[id] = true
		want, err := os.ReadFile(experimentGolden(id))
		if err != nil {
			t.Errorf("EXPERIMENTS.md marks a block %q with no golden: %v", id, err)
			return block
		}
		if *update {
			return "<!-- golden: " + id + " -->\n```\n" + string(want) + "```"
		}
		if body != string(want) {
			t.Errorf("EXPERIMENTS.md block %q differs from %s (regenerate with -update), %s",
				id, experimentGolden(id), firstLineDiff(body, string(want)))
		}
		return block
	})
	for _, e := range experiments.Catalog() {
		if !shown[e.ID] {
			t.Errorf("EXPERIMENTS.md has no <!-- golden: %s --> block", e.ID)
		}
	}
	if *update && !t.Failed() && out != string(doc) {
		if err := os.WriteFile("EXPERIMENTS.md", []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
