package graph_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"treeaa/internal/cli"
	"treeaa/internal/graph"
	"treeaa/internal/tree"
)

// TestParseSpec pins the size of each graph shape a spec names, which the
// table test in internal/cli does not: it compares the parser with the
// constructors, not the constructors with the shapes.
func TestParseSpec(t *testing.T) {
	for _, tc := range []struct {
		spec     string
		vertices int
		edges    int
	}{
		{"cycle:6", 6, 6},
		{"clique:4", 4, 6},
		{"cliquechain:3:3", 7, 9},
		{"cliquechain:4:2", 5, 4}, // path
		{"cactus:2:5", 9, 10},
	} {
		sp, err := cli.ParseSpaceSpec(cli.GraphPrefix+tc.spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if g := sp.Graph; g.NumVertices() != tc.vertices || g.NumEdges() != tc.edges {
			t.Fatalf("%s: %d vertices / %d edges, want %d / %d",
				tc.spec, g.NumVertices(), g.NumEdges(), tc.vertices, tc.edges)
		}
	}
}

// TestParseSpecErrors: graph specs that no graph row reads are refused.
func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"graph:", "graph:cycle", "graph:cycle:2", "graph:cycle:x", "graph:clique:0", "graph:cliquechain:3",
		"graph:cliquechain:0:3", "graph:cliquechain:3:1", "graph:cactus:1:2", "graph:randomblock:0",
		"graph:nope:4", "graph:graph:cycle:3", "graph:@/nonexistent/file",
		"graph:path:8", // tree specs are not graph specs
		"cycle:6",      // nor are graph shapes without the prefix
		// arguments a shape cannot use
		"graph:clique:4:x", "graph:cycle:5:", "graph:cactus:2:5:1",
		// a second string for one spec
		"graph:cycle:05", "graph:cycle:+5",
	} {
		if sp, err := cli.ParseSpaceSpec(spec, 1); err == nil {
			t.Errorf("%q accepted as %+v", spec, sp)
		}
	}
}

// TestParseSpecSeedDeterminism: a random block graph is a function of its
// seed: the same seed builds an equal graph, the next seed a different one.
func TestParseSpecSeedDeterminism(t *testing.T) {
	dot := func(seed int64) string {
		sp, err := cli.ParseSpaceSpec(cli.GraphPrefix+"randomblock:15", seed)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := sp.Graph.WriteDOT(&b, "g", nil); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b, c := dot(42), dot(42), dot(43)
	if a != b {
		t.Fatal("same seed produced different random block graphs")
	}
	if a == c {
		t.Fatal("different seeds produced identical random block graphs")
	}
}

func TestParseEdgeList(t *testing.T) {
	g, err := graph.Parse(strings.NewReader("# a triangle with a tail\na - b\nb - c\nc - a\nc - d\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got %d vertices / %d edges", g.NumVertices(), g.NumEdges())
	}
	if !g.IsCut(must(t, g, "c")) {
		t.Fatal("c is not a cut vertex")
	}
	// Single vertex graph.
	one, err := graph.Parse(strings.NewReader("solo\n"))
	if err != nil {
		t.Fatal(err)
	}
	if one.NumVertices() != 1 || len(one.Blocks()) != 1 {
		t.Fatalf("single vertex: %d vertices, %d blocks", one.NumVertices(), len(one.Blocks()))
	}
}

func must(t *testing.T, g *graph.Graph, label string) tree.VertexID {
	t.Helper()
	v, err := g.VertexByLabel(label)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestParseErrors(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		want     error
	}{
		{"empty", "", graph.ErrEmpty},
		{"disconnected", "a - b\nc - d\n", graph.ErrNotConnected},
		{"self-loop", "a - a\na - b\n", tree.ErrDuplicate},
		{"duplicate edge", "a - b\nb - c\na - b\n", tree.ErrDuplicate},
		{"reversed duplicate", "a - b\nb - a\n", tree.ErrDuplicate},
		{"bad label", "a - #b\n", graph.ErrBadLabel},
		{"isolated extra vertex", "a - b\nc\n", graph.ErrNotConnected},
	} {
		_, err := graph.Parse(strings.NewReader(tc.in))
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, err := graph.Parse(strings.NewReader("a - b - c\n")); err == nil {
		t.Error("three-field line accepted")
	}
}

// TestDecompositionDeterminism pins byte-identical block-cut trees across
// repeated builds — the property every party relies on to agree on the
// protocol tree without communication.
func TestDecompositionDeterminism(t *testing.T) {
	build := func() string {
		sp, err := cli.ParseSpaceSpec("graph:cactus:3:4", 1)
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		if err := sp.Graph.BlockCutTree().WriteDOT(&buf, "bc", nil); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := build()
	for i := 0; i < 5; i++ {
		if build() != first {
			t.Fatal("block-cut tree not deterministic across builds")
		}
	}
}

// TestGeneratorsMatchLabelBuilder: generators build from VertexIDs, and the
// label Builder is their reference. Every generated graph, rebuilt from its
// labeled edge list, must have the same labels, neighbor lists and blocks,
// and its block-cut tree must parse back from its own edge list unchanged,
// with fmt's zero-padded "b…" and "c…" labels.
func TestGeneratorsMatchLabelBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, g := range map[string]*graph.Graph{
		"cycle12":         graph.NewCycle(12),
		"clique1":         graph.NewClique(1),
		"clique11":        graph.NewClique(11),
		"cliquechain8x6":  graph.NewCliqueChain(8, 6),
		"cliquechain12x2": graph.NewCliqueChain(12, 2),
		"cactus6x4":       graph.NewCactusChain(6, 4),
		"randomblock40":   graph.NewRandomBlock(40, rng),
		"randomblock8":    graph.NewRandomBlock(8, rng),
	} {
		var b graph.Builder
		if g.NumVertices() == 1 {
			b.AddVertex(g.Label(0))
		}
		for _, e := range g.Edges() {
			b.AddEdge(g.Label(e[0]), g.Label(e[1]))
		}
		ref, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ref.NumVertices() != g.NumVertices() {
			t.Fatalf("%s: %d vertices, rebuilt %d", name, g.NumVertices(), ref.NumVertices())
		}
		for v := tree.VertexID(0); int(v) < g.NumVertices(); v++ {
			if g.Label(v) != ref.Label(v) || !slices.Equal(g.Neighbors(v), ref.Neighbors(v)) {
				t.Fatalf("%s: vertex %d: %s %v, rebuilt %s %v", name, v, g.Label(v), g.Neighbors(v), ref.Label(v), ref.Neighbors(v))
			}
		}
		if !slices.EqualFunc(g.Blocks(), ref.Blocks(), func(a, b graph.Block) bool {
			return a.Kind == b.Kind && slices.Equal(a.Vertices, b.Vertices)
		}) {
			t.Fatalf("%s: blocks %v, rebuilt %v", name, g.Blocks(), ref.Blocks())
		}

		bc := g.BlockCutTree()
		back, err := tree.ParseString(bc.String())
		if err != nil || !back.Equal(bc) || !ref.BlockCutTree().Equal(bc) {
			t.Fatalf("%s: block-cut tree does not round-trip (%v):\n%s", name, err, bc)
		}
		nb := len(g.Blocks())
		for node := tree.VertexID(0); int(node) < bc.NumVertices(); node++ {
			want := fmt.Sprintf("b%0*d", len(fmt.Sprint(nb-1)), node)
			if v, ok := g.NodeCut(node); ok {
				want = fmt.Sprintf("c%0*d", len(fmt.Sprint(g.NumVertices()-1)), v)
			}
			if bc.Label(node) != want || back.Label(node) != want || !slices.Equal(bc.Neighbors(node), back.Neighbors(node)) {
				t.Fatalf("%s: node %d: %s %v, parsed %s %v, want label %s", name, node,
					bc.Label(node), bc.Neighbors(node), back.Label(node), back.Neighbors(node), want)
			}
		}
	}
}

// TestGeneratorAllocatesNothingPerVertex pins a generated graph, block-cut
// tree included, to a fixed number of allocations, the same at 41 vertices
// as at 321. The label-keyed builders this replaced spent about twenty per
// vertex.
func TestGeneratorAllocatesNothingPerVertex(t *testing.T) {
	const maxAllocs = 48
	small := testing.AllocsPerRun(5, func() { graph.NewCliqueChain(8, 6) })
	large := testing.AllocsPerRun(5, func() { graph.NewCliqueChain(64, 6) })
	if small > maxAllocs || large > small {
		t.Errorf("NewCliqueChain: %.0f allocations at 8x6 and %.0f at 64x6, want <= %d and no growth", small, large, maxAllocs)
	}
}
