package graph

// Block-cut tree decomposition. The blocks (biconnected components) of a
// connected graph, together with its cut vertices, form a tree: one node
// per block, one node per cut vertex, and an edge whenever a cut vertex
// belongs to a block. The journal algorithm runs TreeAA on exactly this
// tree — every party maps its input vertex v to η(v) (v's cut node if v is
// a cut vertex, else the node of the unique block containing v), agrees on
// a block-cut tree node within distance 1, and decodes locally back into
// the graph (machine.go).
//
// All protocol-visible determinism matches the repo convention: blocks are
// found by a DFS that visits neighbors in ascending VertexID order, then
// canonically reordered by their sorted vertex lists, and the block-cut
// tree's labels ("b<idx>", "c<vertex>", zero-padded) sort deterministically
// — so independent parties build byte-identical trees and the whole TreeAA
// stack (Euler lists, PathsFinder, adversary phase tags) applies verbatim.

import (
	"fmt"
	"slices"

	"treeaa/internal/tree"
)

// decomposition is the precomputed block-cut structure of a Graph. The
// block-cut tree numbers its nodes as its labels sort: block i is node i,
// and the k-th cut vertex in ascending order is node len(blocks)+k.
type decomposition struct {
	blocks       []Block
	vertexBlocks [][]int // graph vertex -> indices of blocks containing it

	bc   *tree.Tree      // the block-cut tree
	eta  []tree.VertexID // graph vertex -> its block-cut tree node
	cuts []tree.VertexID // cut vertices, ascending: node len(blocks)+k is cuts[k]
}

// decompose fills g.dc. The graph is already validated as connected and
// non-empty.
func (g *Graph) decompose() error {
	n := g.NumVertices()
	blocks := g.biconnected()
	// Canonical order: sort each block's vertices, then the blocks by their
	// vertex lists (blocks are distinct as sets, so the order is total).
	for _, b := range blocks {
		slices.Sort(b.Vertices)
	}
	slices.SortFunc(blocks, func(a, b Block) int { return slices.Compare(a.Vertices, b.Vertices) })
	mark := make([]int, n)
	for i := range blocks {
		blocks[i].Kind = g.classify(blocks[i].Vertices, mark, i+1)
	}

	// vertexBlocks rows are cut from one slab; each is ascending because
	// blocks are visited in order.
	at := make([]int, n+1)
	for _, b := range blocks {
		for _, v := range b.Vertices {
			at[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		at[v+1] += at[v]
	}
	slab := make([]int, at[n])
	vertexBlocks := make([][]int, n)
	for v := range vertexBlocks {
		vertexBlocks[v] = slab[at[v]:at[v]:at[v+1]]
	}
	for i, b := range blocks {
		for _, v := range b.Vertices {
			vertexBlocks[v] = append(vertexBlocks[v], i)
		}
	}

	nb, ncut := len(blocks), 0
	for _, in := range vertexBlocks {
		if len(in) >= 2 {
			ncut++
		}
	}
	eta := make([]tree.VertexID, n)
	cuts := make([]tree.VertexID, 0, ncut)
	for v, in := range vertexBlocks {
		if len(in) >= 2 {
			eta[v] = tree.VertexID(nb + len(cuts))
			cuts = append(cuts, tree.VertexID(v))
		} else {
			eta[v] = tree.VertexID(in[0])
		}
	}
	// Labels "b<block>" and "c<vertex>", zero-padded, sort blocks first and
	// then cut vertices in ascending order: the node numbering above.
	labels := tree.NumberedLabels(make([]string, 0, nb+len(cuts)), "b", tree.LabelWidth(nb-1), nb, func(i int) int { return i })
	labels = tree.NumberedLabels(labels, "c", tree.LabelWidth(n-1), len(cuts), func(k int) int { return int(cuts[k]) })
	edges := make([][2]tree.VertexID, 0, len(labels)-1)
	for i, b := range blocks {
		for _, v := range b.Vertices {
			if len(vertexBlocks[v]) >= 2 {
				edges = append(edges, [2]tree.VertexID{tree.VertexID(i), eta[v]})
			}
		}
	}
	bc, err := tree.FromEdges(labels, edges)
	if err != nil {
		return fmt.Errorf("graph: block-cut tree: %w", err)
	}
	g.dc = decomposition{blocks: blocks, vertexBlocks: vertexBlocks, bc: bc, eta: eta, cuts: cuts}
	return nil
}

// biconnected returns g's biconnected components via the classic lowpoint
// DFS with an edge stack, each block's vertices cut from one slab. A
// single-vertex graph is one block. Deterministic: DFS from vertex 0,
// neighbors ascending.
func (g *Graph) biconnected() []Block {
	n := g.NumVertices()
	if n == 1 {
		return []Block{{Vertices: []tree.VertexID{0}}}
	}
	disc := make([]int, n)
	low := make([]int, n)
	parent := make([]tree.VertexID, n)
	for i := range parent {
		parent[i] = tree.None
	}
	timer := 0
	type edge struct{ u, v tree.VertexID }
	stack := make([]edge, 0, g.NumEdges())
	// A connected graph on n >= 2 vertices has at most n-1 blocks, and its
	// blocks hold n + blocks - 1 < 2n vertices between them (one extra
	// membership per block a cut vertex joins), so neither slice regrows.
	out := make([]Block, 0, n-1)
	slab := make([]tree.VertexID, 0, 2*n)
	mark := make([]int, n) // mark[w] == len(out)+1: w is in the block being popped

	pop := func(u, v tree.VertexID) {
		start, stamp := len(slab), len(out)+1
		for len(stack) > 0 {
			e := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range [2]tree.VertexID{e.u, e.v} {
				if mark[w] != stamp {
					mark[w] = stamp
					slab = append(slab, w)
				}
			}
			if e.u == u && e.v == v {
				break
			}
		}
		out = append(out, Block{Vertices: slab[start:len(slab):len(slab)]})
	}

	var dfs func(u tree.VertexID)
	dfs = func(u tree.VertexID) {
		timer++
		disc[u] = timer
		low[u] = timer
		for _, v := range g.adj[u] {
			switch {
			case disc[v] == 0:
				parent[v] = u
				stack = append(stack, edge{u, v})
				dfs(v)
				if low[v] < low[u] {
					low[u] = low[v]
				}
				if low[v] >= disc[u] {
					pop(u, v)
				}
			case v != parent[u] && disc[v] < disc[u]:
				stack = append(stack, edge{u, v})
				if disc[v] < low[u] {
					low[u] = disc[v]
				}
			}
		}
	}
	dfs(0)
	return out
}

// classify determines a block's kind from its induced subgraph. mark is
// scratch shared across calls: it sets mark[v] = stamp for the block's
// vertices, and stamp must differ from every earlier call's.
func (g *Graph) classify(vs []tree.VertexID, mark []int, stamp int) BlockKind {
	k := len(vs)
	if k == 2 {
		return BlockEdge
	}
	for _, v := range vs {
		mark[v] = stamp
	}
	edges := 0
	allDegree2 := true
	for _, v := range vs {
		deg := 0
		for _, w := range g.adj[v] {
			if mark[w] == stamp {
				deg++
			}
		}
		edges += deg
		if deg != 2 {
			allDegree2 = false
		}
	}
	edges /= 2
	switch {
	case edges == k*(k-1)/2:
		return BlockClique // includes K1 and K3
	case allDegree2 && edges == k:
		return BlockCycle
	default:
		return BlockOther
	}
}

// ---- decomposition accessors

// Blocks returns the biconnected components in canonical order. The slice
// and its contents are shared; callers must not mutate them.
func (g *Graph) Blocks() []Block { return g.dc.blocks }

// IsCut reports whether v is a cut (articulation) vertex.
func (g *Graph) IsCut(v tree.VertexID) bool { return len(g.dc.vertexBlocks[v]) >= 2 }

// IsBlockGraph reports whether every block is an edge or a clique — the
// class the journal algorithm achieves exact validity and 1-agreement on.
func (g *Graph) IsBlockGraph() bool {
	for _, b := range g.dc.blocks {
		if b.Kind != BlockEdge && b.Kind != BlockClique {
			return false
		}
	}
	return true
}

// BlockCutTree returns the block-cut tree: one node per block ("b<idx>"),
// one per cut vertex ("c<vertex>"), edges for containment. It is a regular
// *tree.Tree, so the entire TreeAA machinery runs on it unchanged.
func (g *Graph) BlockCutTree() *tree.Tree { return g.dc.bc }

// Eta maps a graph vertex to its block-cut tree node: its cut node if v is
// a cut vertex, else the node of the unique block containing v.
func (g *Graph) Eta(v tree.VertexID) tree.VertexID { return g.dc.eta[v] }

// NodeBlock resolves a block-cut tree node to its block index; ok is false
// for cut nodes.
func (g *Graph) NodeBlock(node tree.VertexID) (int, bool) {
	if int(node) < len(g.dc.blocks) {
		return int(node), true
	}
	return -1, false
}

// NodeCut resolves a block-cut tree node to its cut vertex; ok is false for
// block nodes.
func (g *Graph) NodeCut(node tree.VertexID) (tree.VertexID, bool) {
	if k := int(node) - len(g.dc.blocks); k >= 0 {
		return g.dc.cuts[k], true
	}
	return tree.None, false
}

// BlockNode returns the block-cut tree node of block index i, which is i.
func (g *Graph) BlockNode(i int) tree.VertexID { return tree.VertexID(i) }

// InSameBlock reports whether u and v belong to a common block. Vertices of
// a common block are at geodesic distance at most the block diameter, and
// at most 1 when the block is an edge or a clique.
func (g *Graph) InSameBlock(u, v tree.VertexID) bool {
	a, b := g.dc.vertexBlocks[u], g.dc.vertexBlocks[v]
	for _, i := range a {
		for _, j := range b {
			if i == j {
				return true
			}
		}
	}
	return false
}
