package treeaa

// The checker's sweeps are pinned cell by cell: every line of
// testdata/check/tree.jsonl is one cell's result as
//
//	go run ./cmd/check -json -seeds 1-5 -budget 400 -tcp-every 0 -async-every 0
//
// prints it (spec, rounds, messages, violations), every line of
// testdata/check/graph.jsonl one cell of
//
//	go run ./cmd/check -json -space graph -seeds 1-3 -budget 175 -tcp-every 0 -async-every 0
//
// and the same sweeps run here — check.Sweep, the loop cmd/check runs, with
// the options those flags give — must reproduce each line. The sweep must also stay clean: cmd/check
// follows a violating cell with its shrunk repro, which no golden line
// records, so a violation fails the test outright. A change to the protocol
// or its schedule shows as a diff keyed by spec — how many cells were added,
// removed and changed, then the first of each — and the golden is rewritten
// with
//
//	go test -run TestCheckSweep -update .
//
// so that the files' diff is the change's record, cell by cell.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"treeaa/internal/check"
)

// sweeps are the pinned sweeps: each golden under testdata/check is named
// for its cmd/check -space filter ("tree" is the unfiltered mix), with the
// -seeds and -budget it was drawn with.
var sweeps = []struct {
	name, space string
	seeds       []int64
	budget      int
}{
	{"tree", "", []int64{1, 2, 3, 4, 5}, 400},
	{"graph", "graph", []int64{1, 2, 3}, 175},
}

// runSweep returns a sweep's JSON lines in cmd/check's order.
func runSweep(t *testing.T, seeds []int64, budget int, space string) []string {
	var lines, violations []string
	violated := 0
	err := check.Sweep(seeds, budget, space, func(c *check.Cell) error {
		res, err := check.RunCell(c, check.Options{}) // -tcp-every 0
		if err != nil {
			return fmt.Errorf("cell %s: %w", c, err)
		}
		if len(res.Violations) > 0 {
			violated++
			violations = append(violations, res.Violations[0].String())
		}
		b, err := json.Marshal(res)
		lines = append(lines, string(b))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if violated > 0 {
		t.Errorf("%d sweep cells violated, the first:\n%s", violated, strings.Join(violations[:min(5, violated)], "\n"))
	}
	return lines
}

// specOf keys a sweep line by its cell spec.
func specOf(t *testing.T, line string) string {
	var cell struct{ Spec string }
	if err := json.Unmarshal([]byte(line), &cell); err != nil {
		t.Fatalf("sweep line %q: %v", line, err)
	}
	return cell.Spec
}

// sweepDiff compares two sweeps keyed by spec and describes the difference
// ("" when there is none): the added, removed and changed counts, then up
// to five cells of each kind. A spec drawn more than once is keyed by its
// occurrence too, so repeats pair up in order instead of collapsing.
func sweepDiff(t *testing.T, got, want []string) string {
	index := func(lines []string) map[string]string {
		m := make(map[string]string, len(lines))
		seen := make(map[string]int, len(lines))
		for _, l := range lines {
			spec := specOf(t, l)
			m[fmt.Sprintf("%s#%d", spec, seen[spec])] = l
			seen[spec]++
		}
		return m
	}
	g, w := index(got), index(want)
	var added, removed, changed []string
	for spec, line := range g {
		switch old, ok := w[spec]; {
		case !ok:
			added = append(added, "+ "+line)
		case old != line:
			changed = append(changed, "- "+old+"\n+ "+line)
		}
	}
	for spec, line := range w {
		if _, ok := g[spec]; !ok {
			removed = append(removed, "- "+line)
		}
	}
	if len(added)+len(removed)+len(changed) == 0 {
		if !slices.Equal(got, want) {
			return "same cells in a different order"
		}
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d added, %d removed, %d changed of %d cells\n", len(added), len(removed), len(changed), len(want))
	for _, kind := range [][]string{added, removed, changed} {
		slices.Sort(kind)
		for _, l := range kind[:min(5, len(kind))] {
			sb.WriteString(l + "\n")
		}
	}
	return sb.String()
}

func TestCheckSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("the sweeps run 2525 cells")
	}
	for _, sw := range sweeps {
		t.Run(sw.name, func(t *testing.T) {
			golden := filepath.Join("testdata", "check", sw.name+".jsonl")
			got := runSweep(t, sw.seeds, sw.budget, sw.space)
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("sweep golden %s updated (%d cells)", golden, len(got))
				return
			}
			raw, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing sweep golden (regenerate with -update): %v", err)
			}
			want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
			if d := sweepDiff(t, got, want); d != "" {
				t.Errorf("check sweep %s changed (regenerate with -update if intentional):\n%s", sw.name, d)
			}
		})
	}
}

// TestSweepDiffRepeatedSpec: a spec drawn twice pairs up by occurrence, so
// a change to either copy counts as one changed cell and a dropped copy as
// one removed, instead of collapsing into a single key.
func TestSweepDiffRepeatedSpec(t *testing.T) {
	a := `{"spec":"s=1","rounds":3}`
	b := `{"spec":"s=1","rounds":4}`
	c := `{"spec":"s=2","rounds":5}`
	for _, tc := range []struct {
		got, want []string
		head      string
	}{
		{[]string{a, a, c}, []string{a, a, c}, ""},
		{[]string{a, b, c}, []string{a, a, c}, "0 added, 0 removed, 1 changed of 3 cells"},
		{[]string{a, c}, []string{a, a, c}, "0 added, 1 removed, 0 changed of 3 cells"},
		{[]string{a, a, a, c}, []string{a, a, c}, "1 added, 0 removed, 0 changed of 3 cells"},
	} {
		d := sweepDiff(t, tc.got, tc.want)
		if head, _, _ := strings.Cut(d, "\n"); head != tc.head {
			t.Errorf("sweepDiff(%q, %q) = %q, want %q first", tc.got, tc.want, d, tc.head)
		}
	}
}
