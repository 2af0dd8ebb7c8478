package check

// Graph-cell checker tests: tree=graph:… specs parse and round-trip, graph
// cells run clean across every clause family (with the sequential/concurrent
// and TCP differentials), the generator's graph arm compiles, the
// out-of-model evil machine bug is caught on graph spaces, and the shrinker
// prunes blocks and shortens cycles through the Tree field.

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"treeaa/internal/cli"
)

func mustSpace(t *testing.T, spec string, seed int64) *cli.Space {
	t.Helper()
	sp, err := cli.ParseSpaceSpec(spec, seed)
	if err != nil {
		t.Fatalf("ParseSpaceSpec(%q): %v", spec, err)
	}
	return sp
}

func TestGraphSpecRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"s=1;tree=graph:cycle:9;n=4;t=1;in=spread;adv=splitvote(per=1)",
		"s=5;tree=graph:cliquechain:3:4;n=7;t=2;in=spread;adv=equivocator(hi=1000,lo=-100)",
		"s=2;tree=graph:cactus:2:4;n=6;t=1;in=0.3.4.2.1.5;adv=noise(maxval=20)",
		"s=7;tree=graph:randomblock:12;n=5;t=1;in=spread;adv=halfburn+mutate(rate=100)",
		"s=9;tree=graph:clique:5;n=4;t=0;in=spread",
	} {
		c, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got := c.String(); got != spec {
			t.Errorf("round trip:\n in:  %s\n out: %s", spec, got)
		}
	}
}

func TestGraphSpecErrors(t *testing.T) {
	// Parse-level: a spec line must carry tree=.
	if _, err := Parse("s=1;n=4;t=1;in=spread"); err == nil {
		t.Error("Parse without tree= succeeded, want error")
	}
	// Compile-level: bad graph specs and out-of-space inputs.
	for _, spec := range []string{
		"s=1;tree=graph:nope:4;n=4;t=1;in=spread",   // unknown generator
		"s=1;tree=graph:cycle:9;n=4;t=1;in=0.1.2.9", // vertex outside graph
		"s=1;tree=graph:cycle:2;n=4;t=1;in=spread",  // degenerate cycle
	} {
		c, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if _, err := RunCell(c, Options{}); err == nil {
			t.Errorf("RunCell(%q) succeeded, want compile error", spec)
		}
	}
}

// TestGraphDifferentialCells pins the sequential/concurrent differential and
// every invariant on a fixed matrix of graph cells covering each clause
// family and each graph shape.
func TestGraphDifferentialCells(t *testing.T) {
	for _, spec := range []string{
		"s=1;tree=graph:cliquechain:3:4;n=7;t=2;in=spread;adv=splitvote(per=1)",
		"s=2;tree=graph:cycle:9;n=7;t=2;in=spread;adv=halfburn+mutate(rate=300)",
		"s=3;tree=graph:clique:6;n=6;t=1;in=spread;adv=noise(maxval=12)",
		"s=4;tree=graph:cactus:3:4;n=7;t=2;in=spread;adv=equivocator(hi=1000,lo=-100)+omit(drop=500)",
		"s=5;tree=graph:cliquechain:2:3;n=5;t=1;in=spread;adv=crash(rounds=3)",
		"s=6;tree=graph:randomblock:10;n=4;t=1;in=spread;adv=replay(delay=2)+mutate(rate=500)",
		"s=7;tree=graph:cactus:2:5;n=9;t=2;in=spread;adv=frame(fake=5)",
		"s=8;tree=graph:cycle:6;n=4;t=0;in=spread",
		"s=9;tree=graph:cliquechain:3:3;n=9;t=2;in=0.0.0.6.6.6.3.3.3;adv=silent",
	} {
		res, err := RunCell(MustParse(spec), Options{})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		for _, v := range res.Violations {
			t.Errorf("%s", v)
		}
	}
}

// TestGraphTCPDifferential runs the TCP comparison on one compatible graph
// cell: the wire carries block-cut-tree vertex payloads end to end.
func TestGraphTCPDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp cluster in -short mode")
	}
	res, err := RunCell(MustParse("s=1;tree=graph:cliquechain:3:4;n=4;t=1;in=spread;adv=splitvote(per=1)"), Options{TCP: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TCPChecked {
		t.Fatal("TCP differential did not run on a compatible graph cell")
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}

// TestGeneratedGraphCellsAreClean anchors the generator's graph arm: bounded
// random exploration of graph-only cells finds no violations — lock-step,
// and under every adversarial async scheduler for the compatible ones — and
// every cell is a graph cell that round-trips through its spec line.
func TestGeneratedGraphCellsAreClean(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	asyncRan := 0
	for i := 0; i < 15; i++ {
		c := GenerateIn(rng, "graph")
		if !strings.HasPrefix(c.Tree, "graph:") {
			t.Fatalf("cell %d is not a pure graph cell: %s", i, c)
		}
		c2, err := Parse(c.String())
		if err != nil {
			t.Fatalf("generated graph cell %s does not re-parse: %v", c, err)
		}
		if !reflect.DeepEqual(c, c2) {
			t.Errorf("re-parsed cell differs:\n gen:    %#v\n parsed: %#v", c, c2)
		}
		res, err := RunCell(c, Options{})
		if err != nil {
			t.Fatalf("cell %d (%s): %v", i, c, err)
		}
		for _, v := range res.Violations {
			t.Errorf("cell %d: %s", i, v)
		}
		if !AsyncCompatible(c) {
			continue
		}
		ares, err := RunAsyncCell(c, AsyncOptions{})
		if err != nil {
			t.Fatalf("async cell %d (%s): %v", i, c, err)
		}
		for _, v := range ares.Violations {
			t.Errorf("async cell %d: %s", i, v)
		}
		asyncRan++
	}
	if asyncRan == 0 {
		t.Error("no generated graph cell ran async")
	}
	// The tree-only filter must never emit a graph cell.
	for i := 0; i < 10; i++ {
		if c := GenerateIn(rng, "tree"); strings.HasPrefix(c.Tree, "graph:") {
			t.Fatalf("tree-only generation produced graph cell %s", c)
		}
	}
}

// graphEvilSpec concentrates every input on one vertex of a clique chain and
// lets the out-of-model evil machine bug drag the agreed value away: the
// decoded outputs land outside the one-vertex honest hull, deterministically.
const graphEvilSpec = "s=1;tree=graph:cliquechain:3:4;n=9;t=2;in=1.1.1.1.1.1.1.1.1;adv=splitvote(per=1)+evil(val=1000000)"

// TestGraphEvilIsCaught: the checker detects the evil machine bug on graph
// spaces as a validity violation against the geodesic hull.
func TestGraphEvilIsCaught(t *testing.T) {
	c := MustParse(graphEvilSpec)
	first, err := RunCell(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hasValidity := false
	for _, v := range first.Violations {
		if v.Invariant == "validity" {
			hasValidity = true
		}
	}
	if !hasValidity {
		t.Fatalf("evil graph cell produced no validity violation: %v", first.Violations)
	}
	again, err := RunCell(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Errorf("evil graph cell is not deterministic:\n 1st: %+v\n 2nd: %+v", first, again)
	}
}

// TestGraphEvilShrinks: the shrinker minimizes through the Tree field —
// dropping the decoy clause, collapsing t, and pruning the clique chain —
// while the shrunk cell stays a graph cell and still violates.
func TestGraphEvilShrinks(t *testing.T) {
	c := MustParse(graphEvilSpec)
	shrunk, runs := Shrink(c, Options{}, 300)
	if runs == 0 {
		t.Fatal("shrinker spent no runs")
	}
	if !Violates(shrunk, Options{}) {
		t.Fatalf("shrunk cell %s no longer violates", shrunk)
	}
	if !strings.HasPrefix(shrunk.Tree, "graph:cliquechain:") {
		t.Fatalf("shrunk cell %s left the graph space", shrunk)
	}
	if len(shrunk.Clauses) != 1 || shrunk.Clauses[0].Name != "evil" {
		t.Errorf("shrunk cell kept clauses %v, want only evil", shrunk.Clauses)
	}
	if shrunk.N >= c.N {
		t.Errorf("shrunk cell kept n = %d, want < %d", shrunk.N, c.N)
	}
	if shrunk.Tree == c.Tree {
		t.Errorf("shrunk cell kept the full space %s", shrunk.Tree)
	}
	t.Logf("shrunk: %s (%d runs)", shrunk, runs)
}

// TestGraphShrinkCandidates pins the graph-spec reductions: block pruning
// and block shrinking on clique chains, cycle shortening on cycles, and
// input clamping into the reduced space.
func TestGraphShrinkCandidates(t *testing.T) {
	c := MustParse("s=1;tree=graph:cliquechain:3:4;n=4;t=1;in=0.9.5.2;adv=silent")
	want := map[string]bool{"graph:cliquechain:1:4": false, "graph:cliquechain:2:4": false,
		"graph:cliquechain:3:2": false, "graph:cliquechain:3:3": false}
	for _, cand := range candidates(c) {
		if !strings.HasPrefix(cand.Tree, "graph:") {
			t.Fatalf("graph candidate left the graph space: %s", cand)
		}
		if _, ok := want[cand.Tree]; ok {
			want[cand.Tree] = true
			if cand.Inputs != nil {
				sp := mustSpace(t, cand.Tree, cand.Seed)
				for _, in := range cand.Inputs {
					if int(in) >= sp.NumVertices() {
						t.Errorf("candidate %s kept input %d outside the shrunk space", cand, int(in))
					}
				}
			}
		}
	}
	for spec, seen := range want {
		if !seen {
			t.Errorf("no candidate shrank the space to %s", spec)
		}
	}

	cyc := MustParse("s=1;tree=graph:cycle:9;n=4;t=1;in=spread;adv=silent")
	sawShorter := false
	for _, cand := range candidates(cyc) {
		if cand.Tree == "graph:cycle:4" || cand.Tree == "graph:cycle:8" {
			sawShorter = true
		}
	}
	if !sawShorter {
		t.Error("no candidate shortened the cycle")
	}
}
