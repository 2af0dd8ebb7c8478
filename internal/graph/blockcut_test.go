package graph_test

// Differential tests pinning the lowpoint-DFS block-cut decomposition
// against a brute-force oracle that uses only the definitions: a cut vertex
// is one whose removal disconnects the graph, and blocks are obtained by
// recursively splitting at any cut vertex until no subgraph has one. The
// two implementations share no code (the oracle never looks at discovery
// times or lowpoints), so agreement on exhaustive small graphs and random
// graphs up to 12 vertices pins the decomposition itself.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"treeaa/internal/graph"
	"treeaa/internal/tree"
)

// adjacency is the oracle's graph view: sorted vertex set + edge test.
type adjacency struct {
	vs    []tree.VertexID
	edges map[[2]tree.VertexID]bool
}

func oracleView(g *graph.Graph) adjacency {
	a := adjacency{edges: map[[2]tree.VertexID]bool{}}
	for v := tree.VertexID(0); int(v) < g.NumVertices(); v++ {
		a.vs = append(a.vs, v)
	}
	for _, e := range g.Edges() {
		a.edges[[2]tree.VertexID{e[0], e[1]}] = true
		a.edges[[2]tree.VertexID{e[1], e[0]}] = true
	}
	return a
}

// components returns the connected components of the subgraph induced on vs.
func (a adjacency) components(vs []tree.VertexID) [][]tree.VertexID {
	in := map[tree.VertexID]bool{}
	for _, v := range vs {
		in[v] = true
	}
	seen := map[tree.VertexID]bool{}
	var out [][]tree.VertexID
	for _, s := range vs {
		if seen[s] {
			continue
		}
		comp := []tree.VertexID{s}
		seen[s] = true
		for i := 0; i < len(comp); i++ {
			for _, w := range vs {
				if !seen[w] && a.edges[[2]tree.VertexID{comp[i], w}] {
					seen[w] = true
					comp = append(comp, w)
				}
			}
		}
		_ = in
		out = append(out, comp)
	}
	return out
}

// bruteBlocks splits the (connected) induced subgraph on vs at any vertex
// whose removal disconnects it, recursing on each component plus the cut
// vertex; a subgraph with no such vertex is one block.
func (a adjacency) bruteBlocks(vs []tree.VertexID) [][]tree.VertexID {
	if len(vs) <= 2 {
		return [][]tree.VertexID{vs}
	}
	for _, cut := range vs {
		var rest []tree.VertexID
		for _, v := range vs {
			if v != cut {
				rest = append(rest, v)
			}
		}
		comps := a.components(rest)
		if len(comps) < 2 {
			continue
		}
		var out [][]tree.VertexID
		for _, comp := range comps {
			out = append(out, a.bruteBlocks(append(comp, cut))...)
		}
		return out
	}
	return [][]tree.VertexID{vs}
}

// canonical sorts a block list into a comparable form.
func canonical(blocks [][]tree.VertexID) []string {
	out := make([]string, len(blocks))
	for i, b := range blocks {
		sorted := append([]tree.VertexID(nil), b...)
		sort.Slice(sorted, func(x, y int) bool { return sorted[x] < sorted[y] })
		out[i] = fmt.Sprint(sorted)
	}
	sort.Strings(out)
	return out
}

func checkAgainstOracle(t *testing.T, g *graph.Graph, desc string) {
	t.Helper()
	a := oracleView(g)
	want := canonical(a.bruteBlocks(a.vs))
	var got [][]tree.VertexID
	for _, b := range g.Blocks() {
		got = append(got, b.Vertices)
	}
	if !reflect.DeepEqual(canonical(got), want) {
		t.Fatalf("%s: blocks = %v, oracle = %v", desc, canonical(got), want)
	}
	// Cut vertices by definition: removal disconnects.
	for v := tree.VertexID(0); int(v) < g.NumVertices(); v++ {
		var rest []tree.VertexID
		for _, u := range a.vs {
			if u != v {
				rest = append(rest, u)
			}
		}
		brute := len(rest) > 0 && len(a.components(rest)) > 1
		if g.IsCut(v) != brute {
			t.Fatalf("%s: IsCut(%d) = %v, oracle = %v", desc, int(v), g.IsCut(v), brute)
		}
	}
	checkBlockCutShape(t, g, desc)
}

// checkBlockCutShape asserts the structural invariants of the emitted tree:
// every node is exactly one of block/cut, every edge joins a block node and
// a cut node, η maps cut vertices to cut nodes and others to the node of
// their unique block, and BlockNode inverts NodeBlock.
func checkBlockCutShape(t *testing.T, g *graph.Graph, desc string) {
	t.Helper()
	bc := g.BlockCutTree()
	for node := tree.VertexID(0); int(node) < bc.NumVertices(); node++ {
		_, isBlock := g.NodeBlock(node)
		_, isCutNode := g.NodeCut(node)
		if isBlock == isCutNode {
			t.Fatalf("%s: node %d block=%v cut=%v", desc, int(node), isBlock, isCutNode)
		}
		for _, nb := range bc.Neighbors(node) {
			_, nbBlock := g.NodeBlock(nb)
			if isBlock == nbBlock {
				t.Fatalf("%s: edge %d-%d does not alternate block/cut", desc, int(node), int(nb))
			}
		}
	}
	for i := range g.Blocks() {
		if bi, ok := g.NodeBlock(g.BlockNode(i)); !ok || bi != i {
			t.Fatalf("%s: BlockNode(%d) does not invert NodeBlock", desc, i)
		}
	}
	for v := tree.VertexID(0); int(v) < g.NumVertices(); v++ {
		node := g.Eta(v)
		if g.IsCut(v) {
			if c, ok := g.NodeCut(node); !ok || c != v {
				t.Fatalf("%s: eta(cut %d) = node %d", desc, int(v), int(node))
			}
			continue
		}
		bi, ok := g.NodeBlock(node)
		if !ok {
			t.Fatalf("%s: eta(%d) is not a block node", desc, int(v))
		}
		found := false
		for _, u := range g.Blocks()[bi].Vertices {
			if u == v {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: eta(%d) points to a block not containing it", desc, int(v))
		}
	}
}

// buildFromEdges constructs a graph over n vertices from an edge bitmask;
// ok is false when the subset is not a connected simple graph.
func buildFromEdges(n int, pairs [][2]int, mask uint64) (*graph.Graph, bool) {
	var b graph.Builder
	for i := 1; i <= n; i++ {
		b.AddVertex(fmt.Sprintf("v%02d", i))
	}
	for i, p := range pairs {
		if mask&(1<<uint(i)) != 0 {
			b.AddEdge(fmt.Sprintf("v%02d", p[0]), fmt.Sprintf("v%02d", p[1]))
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, false
	}
	return g, true
}

func vertexPairs(n int) [][2]int {
	var pairs [][2]int
	for i := 1; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	return pairs
}

// TestBlockCutOracleExhaustive checks every connected graph on up to 5
// vertices (all edge subsets of K5) against the brute-force oracle.
func TestBlockCutOracleExhaustive(t *testing.T) {
	for n := 1; n <= 5; n++ {
		pairs := vertexPairs(n)
		for mask := uint64(0); mask < 1<<uint(len(pairs)); mask++ {
			g, ok := buildFromEdges(n, pairs, mask)
			if !ok {
				continue
			}
			checkAgainstOracle(t, g, fmt.Sprintf("n=%d mask=%#x", n, mask))
		}
	}
}

// TestBlockCutOracleRandom checks random connected graphs on 6–12 vertices
// and the package generators against the oracle.
func TestBlockCutOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		n := 6 + rng.Intn(7)
		pairs := vertexPairs(n)
		p := 0.15 + 0.4*rng.Float64()
		var g *graph.Graph
		for g == nil {
			var mask uint64
			for i := range pairs {
				if rng.Float64() < p {
					mask |= 1 << uint(i)
				}
			}
			g, _ = buildFromEdges(n, pairs, mask)
		}
		checkAgainstOracle(t, g, fmt.Sprintf("random trial %d (n=%d)", trial, n))
	}
	for _, tc := range []struct {
		desc string
		g    *graph.Graph
	}{
		{"cycle:9", graph.NewCycle(9)},
		{"cycle:12", graph.NewCycle(12)},
		{"clique:5", graph.NewClique(5)},
		{"cliquechain:4:3", graph.NewCliqueChain(4, 3)},
		{"cliquechain:5:2", graph.NewCliqueChain(5, 2)},
		{"cactus:3:4", graph.NewCactusChain(3, 4)},
		{"cactus:2:5", graph.NewCactusChain(2, 5)},
	} {
		checkAgainstOracle(t, tc.g, tc.desc)
	}
	for seed := int64(1); seed <= 25; seed++ {
		g := graph.NewRandomBlock(10, rand.New(rand.NewSource(seed)))
		checkAgainstOracle(t, g, fmt.Sprintf("randomblock:10 seed %d", seed))
		if !g.IsBlockGraph() {
			t.Fatalf("randomblock:10 seed %d is not a block graph", seed)
		}
	}
}

// TestBlockKinds pins the classification on known shapes.
func TestBlockKinds(t *testing.T) {
	if bs := graph.NewCycle(9).Blocks(); len(bs) != 1 || bs[0].Kind != graph.BlockCycle {
		t.Fatalf("cycle:9 blocks = %v", bs)
	}
	if bs := graph.NewCycle(3).Blocks(); len(bs) != 1 || bs[0].Kind != graph.BlockClique {
		t.Fatalf("cycle:3 blocks = %v", bs)
	}
	for _, b := range graph.NewCliqueChain(4, 3).Blocks() {
		if b.Kind != graph.BlockClique {
			t.Fatalf("cliquechain block kind = %v", b.Kind)
		}
	}
	for _, b := range graph.NewCliqueChain(5, 2).Blocks() {
		if b.Kind != graph.BlockEdge {
			t.Fatalf("edge-chain block kind = %v", b.Kind)
		}
	}
	for _, b := range graph.NewCactusChain(3, 4).Blocks() {
		if b.Kind != graph.BlockCycle {
			t.Fatalf("cactus block kind = %v", b.Kind)
		}
	}
	// K4 minus one edge: biconnected but neither clique nor cycle.
	g, err := graph.Parse(strings.NewReader("a - b\nb - c\nc - d\nd - a\na - c\n"))
	if err != nil {
		t.Fatal(err)
	}
	if bs := g.Blocks(); len(bs) != 1 || bs[0].Kind != graph.BlockOther {
		t.Fatalf("K4-e blocks = %v", bs)
	}
	if g.IsBlockGraph() {
		t.Fatal("K4-e classified as block graph")
	}
}
