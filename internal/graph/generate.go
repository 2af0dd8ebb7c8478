package graph

// Generators for the graph-space spec mini-language. Labels follow the
// repo-wide zero-padded convention ("v007") so lexicographic label order
// equals construction order and every generated graph is deterministic for
// a given spec and seed.

import (
	"fmt"
	"math/rand"

	"treeaa/internal/tree"
)

// NewCycle returns the cycle C_n (n >= 3): the canonical non-block-graph
// space, where 1-agreement is impossible (Alistarh–Ellen–Rybicki) and the
// machine's guarantee is the relaxed per-block step.
func NewCycle(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: cycle of %d vertices", n))
	}
	edges := make([][2]tree.VertexID, 0, n)
	for i := 1; i < n; i++ {
		edges = append(edges, [2]tree.VertexID{tree.VertexID(i - 1), tree.VertexID(i)})
	}
	edges = append(edges, [2]tree.VertexID{tree.VertexID(n - 1), 0})
	return generated(n, tree.LabelWidth(n), edges)
}

// NewClique returns the complete graph K_n (n >= 1): a single clique block.
func NewClique(n int) *Graph {
	if n < 1 {
		panic(fmt.Sprintf("graph: clique of %d vertices", n))
	}
	edges := make([][2]tree.VertexID, 0, n*(n-1)/2)
	edges = appendClique(edges, 0, tree.VertexID(n))
	return generated(n, tree.LabelWidth(n), edges)
}

// NewCliqueChain returns a chain of `blocks` cliques of `size` vertices
// each, consecutive cliques sharing one cut vertex — the canonical block
// graph whose block-cut tree is a path.
func NewCliqueChain(blocks, size int) *Graph {
	if blocks < 1 || size < 2 {
		panic(fmt.Sprintf("graph: clique chain %d x %d", blocks, size))
	}
	n := blocks*(size-1) + 1
	edges := make([][2]tree.VertexID, 0, blocks*size*(size-1)/2)
	for bl := 0; bl < blocks; bl++ {
		start := tree.VertexID(bl * (size - 1)) // the cut vertex shared with the previous block
		edges = appendClique(edges, start, start+tree.VertexID(size))
	}
	return generated(n, tree.LabelWidth(n), edges)
}

// NewCactusChain returns a cactus-like chain of `blocks` cycles of length
// `cycleLen`, consecutive cycles sharing one cut vertex. With cycleLen 3
// the blocks are triangles (cliques) and the result is a block graph; with
// cycleLen 4 or 5 each block's diameter is 2, the relaxed
// 2-approximation regime.
func NewCactusChain(blocks, cycleLen int) *Graph {
	if blocks < 1 || cycleLen < 3 {
		panic(fmt.Sprintf("graph: cactus chain %d x %d", blocks, cycleLen))
	}
	n := blocks*(cycleLen-1) + 1
	edges := make([][2]tree.VertexID, 0, blocks*cycleLen)
	for bl := 0; bl < blocks; bl++ {
		start := tree.VertexID(bl * (cycleLen - 1))
		prev := start
		for k := 1; k < cycleLen; k++ {
			edges = append(edges, [2]tree.VertexID{prev, start + tree.VertexID(k)})
			prev = start + tree.VertexID(k)
		}
		edges = append(edges, [2]tree.VertexID{prev, start})
	}
	return generated(n, tree.LabelWidth(n), edges)
}

// NewRandomBlock returns a random block graph on at least n vertices: a
// random block-cut skeleton grown by repeatedly attaching a clique block
// (2–4 vertices) at a uniformly chosen existing vertex. Every block is a
// clique, so the result is always a true block graph.
func NewRandomBlock(n int, rng *rand.Rand) *Graph {
	if n < 1 {
		panic(fmt.Sprintf("graph: random block graph of %d vertices", n))
	}
	// A block of s vertices adds s-1 vertices and at most 2(s-1) edges, and
	// the last one overshoots n by at most 2.
	edges := make([][2]tree.VertexID, 0, 2*(n+1))
	count := 1
	for count < n {
		at := tree.VertexID(rng.Intn(count))
		size := 2 + rng.Intn(3)
		first := tree.VertexID(count)
		count += size - 1
		for v := first; v < tree.VertexID(count); v++ {
			edges = append(edges, [2]tree.VertexID{at, v})
		}
		edges = appendClique(edges, first, tree.VertexID(count))
	}
	// Upper-bound the label width: each attachment adds at most 3 vertices.
	return generated(count, tree.LabelWidth(n+3), edges)
}

// appendClique appends every edge {a, b}, lo <= a < b < hi, to edges.
func appendClique(edges [][2]tree.VertexID, lo, hi tree.VertexID) [][2]tree.VertexID {
	for a := lo; a < hi; a++ {
		for b := a + 1; b < hi; b++ {
			edges = append(edges, [2]tree.VertexID{a, b})
		}
	}
	return edges
}

// generated builds the graph labeled v1, …, vn at the given zero-pad width
// (so label v<i> is VertexID(i-1)) from edges given as VertexIDs.
func generated(n, width int, edges [][2]tree.VertexID) *Graph {
	labels := tree.NumberedLabels(nil, "v", width, n, func(k int) int { return k + 1 })
	g, err := build(labels, edges)
	if err != nil {
		panic(err)
	}
	return g
}
