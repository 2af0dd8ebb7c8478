// Package graph implements the block-graph input space from the journal
// version of the source paper ("Round and Resilience-Optimal Approximate
// Agreement on Trees and Block Graphs", arXiv 2502.05591): connected simple
// graphs whose biconnected components ("blocks") overlap in at most one
// vertex. The package provides parsing and generation, the block-cut tree
// decomposition, geodesic distance and convex hulls, and a graph.Machine
// that runs approximate agreement over the graph by reusing the full TreeAA
// stack (PathsFinder, RealAA projection, gradecast) on the block-cut tree.
//
// Vertices reuse tree.VertexID: ids are dense indices in [0, NumVertices())
// assigned in lexicographic label order, exactly like internal/tree, so
// inputs, outputs and wire payloads flow through sim, transport and the
// serving layer unchanged.
package graph

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"treeaa/internal/tree"
)

// Construction and lookup errors.
var (
	// ErrEmpty is returned when building a graph with no vertices.
	ErrEmpty = errors.New("graph: no vertices")
	// ErrNotConnected is returned when the edge set does not connect all
	// vertices.
	ErrNotConnected = errors.New("graph: not connected")
	// ErrUnknownVertex is returned when a label or VertexID does not exist.
	ErrUnknownVertex = errors.New("graph: unknown vertex")
	// ErrBadLabel is returned for labels that cannot round-trip through the
	// textual edge-list format (same rules as internal/tree).
	ErrBadLabel = errors.New("graph: invalid label")
)

// BlockKind classifies a block (biconnected component) by the structure the
// per-block agreement step exploits.
type BlockKind int

const (
	// BlockEdge is a single-edge block (K2): two vertices, one edge.
	BlockEdge BlockKind = iota
	// BlockClique is a complete block on >= 3 vertices. Block graphs — the
	// class the journal algorithm is exact on — have only edge and clique
	// blocks.
	BlockClique
	// BlockCycle is a chordless cycle on >= 4 vertices (C3 is a clique).
	// Cycles are the frontier where 1-agreement is impossible
	// (Alistarh–Ellen–Rybicki), so cycle blocks get the relaxed
	// 2-approximation-style step: agreement within the block, bounded by
	// the block diameter (2 for the C4/C5 cycles the cactus generator
	// emits).
	BlockCycle
	// BlockOther is any other biconnected component. The machine still
	// runs (decoding stays inside the block), with the same relaxed
	// guarantee as cycles.
	BlockOther
)

func (k BlockKind) String() string {
	switch k {
	case BlockEdge:
		return "edge"
	case BlockClique:
		return "clique"
	case BlockCycle:
		return "cycle"
	default:
		return "other"
	}
}

// Block is one biconnected component of the graph.
type Block struct {
	Vertices []tree.VertexID // ascending
	Kind     BlockKind
}

// Graph is an immutable connected labeled simple graph with its block-cut
// decomposition precomputed. The zero value is not useful; construct graphs
// with a Builder, a generator, or a parser.
type Graph struct {
	labels []string          // ascending: tree.VertexID i is labels[i]
	adj    [][]tree.VertexID // sorted ascending, one slab

	dc decomposition
}

// Builder accumulates vertices and edges and validates them into a Graph.
// The zero value is ready to use. It collects them as the tree Builder
// does, and a label added twice is reported by Build as a self-loop.
type Builder struct{ tb tree.Builder }

// AddVertex registers a vertex label.
func (b *Builder) AddVertex(label string) { b.tb.AddVertex(label) }

// AddEdge registers an undirected edge, registering new labels as vertices.
func (b *Builder) AddEdge(a, c string) { b.tb.AddEdge(a, c) }

// Build validates the accumulated vertices and edges and returns the Graph:
// non-empty, valid labels, no self-loops or duplicate edges (tree.Adjacency,
// the check trees pass too), connected. The block-cut decomposition is
// computed here, so every accessor on the returned Graph is read-only.
func (b *Builder) Build() (*Graph, error) {
	labels, edges := b.tb.Resolve()
	if len(labels) == 0 {
		return nil, ErrEmpty
	}
	for _, l := range labels {
		if !tree.ValidLabel(l) {
			return nil, fmt.Errorf("%w: %q", ErrBadLabel, l)
		}
	}
	return build(labels, edges)
}

// Parse reads the edge-list format of internal/tree (tree.Builder.ReadEdges),
// so a tree's edge list parses as a graph of edge blocks.
func Parse(r io.Reader) (*Graph, error) {
	var b Builder
	if err := b.tb.ReadEdges(r); err != nil {
		return nil, err
	}
	return b.Build()
}

// build is the one constructor of a Graph: labels valid and ascending
// (tree.VertexID i is labels[i]), edges as VertexID pairs into them.
func build(labels []string, edges [][2]tree.VertexID) (*Graph, error) {
	adj, err := tree.Adjacency(labels, edges)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	g := &Graph{labels: labels, adj: adj}
	if reached, n := len(g.bfsOrder(0)), len(labels); reached != n {
		return nil, fmt.Errorf("%w: reached %d of %d vertices", ErrNotConnected, reached, n)
	}
	if err := g.decompose(); err != nil {
		return nil, err
	}
	return g, nil
}

// NumVertices returns |V(G)|.
func (g *Graph) NumVertices() int { return len(g.labels) }

// NumEdges returns |E(G)|.
func (g *Graph) NumEdges() int {
	sum := 0
	for _, ns := range g.adj {
		sum += len(ns)
	}
	return sum / 2
}

// Label returns the label of v.
func (g *Graph) Label(v tree.VertexID) string {
	if !g.Valid(v) {
		return fmt.Sprintf("<invalid:%d>", int(v))
	}
	return g.labels[v]
}

// Labels returns the labels of vs, in order.
func (g *Graph) Labels(vs []tree.VertexID) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = g.Label(v)
	}
	return out
}

// Valid reports whether v is a vertex of g.
func (g *Graph) Valid(v tree.VertexID) bool { return v >= 0 && int(v) < len(g.labels) }

// VertexByLabel returns the vertex with the given label: a binary search
// of the labels, which VertexID order keeps sorted.
func (g *Graph) VertexByLabel(label string) (tree.VertexID, error) {
	v, ok := slices.BinarySearch(g.labels, label)
	if !ok {
		return tree.None, fmt.Errorf("%w: %q", ErrUnknownVertex, label)
	}
	return tree.VertexID(v), nil
}

// Neighbors returns the neighbors of v in ascending order. The slice is
// shared; callers must not mutate it.
func (g *Graph) Neighbors(v tree.VertexID) []tree.VertexID { return g.adj[v] }

// Adjacent reports whether u and v share an edge.
func (g *Graph) Adjacent(u, v tree.VertexID) bool {
	if u == v {
		return false
	}
	ns := g.adj[u]
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// Edges returns every undirected edge once, (u, v) with u < v, in
// lexicographic order.
func (g *Graph) Edges() [][2]tree.VertexID {
	var out [][2]tree.VertexID
	for u := tree.VertexID(0); int(u) < len(g.adj); u++ {
		for _, v := range g.adj[u] {
			if u < v {
				out = append(out, [2]tree.VertexID{u, v})
			}
		}
	}
	return out
}

// bfsOrder returns the vertices reachable from src in BFS order.
func (g *Graph) bfsOrder(src tree.VertexID) []tree.VertexID {
	visited := make([]bool, len(g.labels))
	order := make([]tree.VertexID, 0, len(g.labels))
	visited[src] = true
	order = append(order, src)
	for i := 0; i < len(order); i++ {
		for _, w := range g.adj[order[i]] {
			if !visited[w] {
				visited[w] = true
				order = append(order, w)
			}
		}
	}
	return order
}

// DistancesFrom returns BFS distances from src to every vertex.
func (g *Graph) DistancesFrom(src tree.VertexID) []int {
	dist := make([]int, len(g.labels))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	order := make([]tree.VertexID, 1, len(dist))
	order[0] = src
	for i := 0; i < len(order); i++ {
		v := order[i]
		for _, w := range g.adj[v] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				order = append(order, w)
			}
		}
	}
	return dist
}

// Dist returns the geodesic distance between u and v.
func (g *Graph) Dist(u, v tree.VertexID) int {
	return g.DistancesFrom(u)[v]
}

// Diameter returns the maximum geodesic distance over all vertex pairs.
func (g *Graph) Diameter() int {
	d := 0
	for v := tree.VertexID(0); int(v) < len(g.labels); v++ {
		for _, dd := range g.DistancesFrom(v) {
			if dd > d {
				d = dd
			}
		}
	}
	return d
}

// WriteDOT emits a Graphviz rendering with optional per-vertex attributes.
func (g *Graph) WriteDOT(w io.Writer, name string, attrs map[tree.VertexID]string) error {
	if _, err := fmt.Fprintf(w, "graph %s {\n", name); err != nil {
		return err
	}
	for v := tree.VertexID(0); int(v) < len(g.labels); v++ {
		a := attrs[v]
		if a != "" {
			a = " [" + a + "]"
		}
		if _, err := fmt.Fprintf(w, "  %q%s;\n", g.Label(v), a); err != nil {
			return err
		}
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(w, "  %q -- %q;\n", g.Label(e[0]), g.Label(e[1])); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
