// Package tree implements the labeled-tree input space used by Approximate
// Agreement on trees (Fuchs, Ghinea, Parsaeian; PODC 2025).
//
// A Tree is an immutable, connected, acyclic, undirected graph whose vertices
// carry unique string labels. All protocol-visible determinism (root choice,
// DFS child order, Euler-list construction) is derived from lexicographic
// label order, matching the paper's conventions, so that independent parties
// computing over the same tree obtain byte-identical structures.
//
// Everything PathsFinder and the projection phase compute locally — the
// Euler list of ListConstruction(T, Root()), its LCA index, D(T), "is T a
// path", root paths and projections — is a function of the public tree and
// never of the party, so a Tree compiles it once (see Tree) and answers
// from it. Building the tree is the cost every cold spec pays; generators
// emit VertexID edges (label v<i> is VertexID(i-1)) and skip the label sort:
//
//	generators, FromEdges                                  O(|V|), a fixed dozen allocations
//	Builder.Build, Parse, UnmarshalJSON                    O(|V| log |V|)
//	first query: compile the rooted form                   O(|V| log |V|)
//	Diameter, DiameterPath, CanonicalDiameterPath, IsPath,
//	Dist, ProjectOntoPath, ListConstruction(t, t.Root())   O(1), no allocation
//	Path, EulerList.PathFromRoot, Center                   O(|path|)
//	InHull(S, v)                                           O(|S|)
//	ValidatePath(p)                                        O(|p|)
//	ConvexHull, SafeArea, DistancesFrom, Eccentricity      O(|V|)
//	ListConstruction at any other root                     O(|V| log |V|)
//
// Per vertex on a 2-vCPU Xeon, a generated tree costs about 0.15 µs
// (NewPath(2048) 0.27 ms, RandomPruefer(4096) 0.7 ms) and its first
// compile about 0.35 µs on a path, 0.6 µs on a random tree.
package tree

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// VertexID identifies a vertex of a Tree. IDs are dense indices in
// [0, NumVertices()) assigned in lexicographic label order, so VertexID order
// coincides with label order.
type VertexID int

// None is the sentinel for "no vertex".
const None VertexID = -1

// Tree is an immutable labeled tree. The zero value is not useful; construct
// trees with a Builder, a generator, or a parser.
//
// A Tree carries its rooted form — parent and depth arrays of the DFS from
// Root(), the Euler list with its occurrence index and sparse LCA table, the
// diameter path in both orientations and the IsPath bit. It is built once,
// by the first query that needs it (not by Builder.Build: parsing a spec to
// render it, stream it or shrink it never queries, and pays nothing), and is
// from then on shared read-only by every party, goroutine and protocol phase
// holding the Tree; a Tree is safe for concurrent use, first use included.
// The first query costs O(|V| log |V|); see the package comment for the rest.
//
// The lazily built state sits behind a pointer, so copying a Tree value
// (UnmarshalJSON does) shares it. Compare trees with Equal, never
// reflect.DeepEqual, which would see one tree queried and the other not.
type Tree struct {
	labels []string     // ascending: VertexID i is labels[i]
	adj    [][]VertexID // sorted by VertexID (== label order), one slab
	rooted *rooted      // allocated by Build, filled on first use
}

// Common construction and lookup errors.
var (
	// ErrEmpty is returned when building a tree with no vertices.
	ErrEmpty = errors.New("tree: no vertices")
	// ErrNotConnected is returned when the edge set does not connect all vertices.
	ErrNotConnected = errors.New("tree: not connected")
	// ErrCycle is returned when the edge set contains a cycle.
	ErrCycle = errors.New("tree: contains a cycle")
	// ErrUnknownVertex is returned when a label or VertexID does not exist.
	ErrUnknownVertex = errors.New("tree: unknown vertex")
	// ErrDuplicate is returned when a label or edge is added twice.
	ErrDuplicate = errors.New("tree: duplicate")
	// ErrBadLabel is returned for labels that cannot round-trip through the
	// textual format: empty, containing '-' or whitespace, or starting
	// with '#'.
	ErrBadLabel = errors.New("tree: invalid label")
)

// ValidLabel reports whether a label survives the edge-list serialization:
// non-empty, no '-' (the edge separator), no whitespace (trimmed by the
// parser), and not starting with '#' (comment marker). It is the label rule
// shared by every labeled input space (trees here, block graphs in
// internal/graph).
func ValidLabel(l string) bool { return validLabel(l) }

// validLabel is the internal form of ValidLabel.
func validLabel(l string) bool {
	if l == "" || l[0] == '#' {
		return false
	}
	for _, r := range l {
		switch r {
		case '-', ' ', '\t', '\n', '\r':
			return false
		}
	}
	return true
}

// ValidateEdges rejects self-loops and duplicate undirected edges in a
// label-pair edge list. It is the label-level entry to Adjacency's edge
// check, the one every tree and block graph passes: it numbers the labels
// by first appearance and runs that check on the numbers. Edge direction is
// ignored: "a-b" and "b-a" are the same edge. Errors wrap ErrDuplicate and
// name the offending edge, so a bad edge list fails with the real cause
// instead of surfacing later as a misleading cycle or connectivity error.
func ValidateEdges(edges [][2]string) error {
	var b Builder
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	_, err := Adjacency(b.labels, b.edges)
	return err
}

// Adjacency returns the neighbor lists of the graph on len(labels)
// vertices with the given edges, each list ascending and all of them cut
// from one slab. It is the one self-loop and duplicate-edge check of every
// tree and block graph: such an error wraps ErrDuplicate and names, by its
// labels, the first offending edge in input order (direction ignored, so
// "a-b" and "b-a" are one edge). An endpoint outside [0, len(labels)) wraps
// ErrUnknownVertex. The labels name vertices in errors only; their order
// does not matter here.
func Adjacency(labels []string, edges [][2]VertexID) ([][]VertexID, error) {
	n := len(labels)
	deg := make([]int, n)
	for _, e := range edges {
		if e[0] < 0 || int(e[0]) >= n || e[1] < 0 || int(e[1]) >= n {
			return nil, fmt.Errorf("%w: edge %d-%d on %d vertices", ErrUnknownVertex, e[0], e[1], n)
		}
		deg[e[0]]++
		deg[e[1]]++
	}
	slab := make([]VertexID, 2*len(edges))
	adj := make([][]VertexID, n)
	off := 0
	for v, d := range deg {
		adj[v] = slab[off : off : off+d]
		off += d
	}
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	// A self-loop lists its vertex twice in its own row, so after sorting
	// both mistakes show as equal neighbors; only then is the input order
	// searched for the edge to name.
	for _, ns := range adj {
		slices.Sort(ns)
		for i := 1; i < len(ns); i++ {
			if ns[i] == ns[i-1] {
				return nil, firstBadEdge(labels, edges)
			}
		}
	}
	return adj, nil
}

// firstBadEdge names the first self-loop or repeated edge of edges in input
// order. Adjacency calls it only once it knows there is one.
func firstBadEdge(labels []string, edges [][2]VertexID) error {
	seen := make(map[[2]VertexID]bool, len(edges))
	for _, e := range edges {
		a, b := e[0], e[1]
		if a == b {
			return fmt.Errorf("%w: self-loop or duplicate vertex %q", ErrDuplicate, labels[a])
		}
		if a > b {
			a, b = b, a
		}
		if seen[[2]VertexID{a, b}] {
			return fmt.Errorf("%w: edge %q-%q", ErrDuplicate, labels[e[0]], labels[e[1]])
		}
		seen[[2]VertexID{a, b}] = true
	}
	return nil
}

// Builder accumulates vertices and edges and validates them into a Tree.
// The zero value is ready to use.
type Builder struct {
	labels []string            // in insertion order
	seen   map[string]VertexID // label -> its index in labels
	edges  [][2]VertexID       // endpoints as indices into labels
}

// add registers a label if it is new and returns its insertion index.
func (b *Builder) add(label string) VertexID {
	if i, ok := b.seen[label]; ok {
		return i
	}
	if b.seen == nil {
		b.seen = make(map[string]VertexID)
	}
	i := VertexID(len(b.labels))
	b.seen[label] = i
	b.labels = append(b.labels, label)
	return i
}

// AddVertex registers a vertex label. Adding the same label twice is an
// error reported by Build. Labels referenced by AddEdge are registered
// implicitly, so calling AddVertex is only required for isolated
// single-vertex trees.
func (b *Builder) AddVertex(label string) {
	if i, ok := b.seen[label]; ok {
		b.edges = append(b.edges, [2]VertexID{i, i}) // force duplicate error in Build
		return
	}
	b.add(label)
}

// AddEdge registers an undirected edge between two labels, registering the
// labels as vertices if they are new.
func (b *Builder) AddEdge(a, c string) {
	b.edges = append(b.edges, [2]VertexID{b.add(a), b.add(c)})
}

// Resolve returns the accumulated labels in ascending order, so that
// VertexID i is labels[i], and the edges in insertion order as VertexID
// pairs. It checks nothing: Build does, and so does the block-graph builder
// in internal/graph.
func (b *Builder) Resolve() (labels []string, edges [][2]VertexID) {
	n := len(b.labels)
	order := make([]VertexID, n) // ascending label order -> insertion index
	for i := range order {
		order[i] = VertexID(i)
	}
	slices.SortFunc(order, func(x, y VertexID) int { return strings.Compare(b.labels[x], b.labels[y]) })
	labels = make([]string, n)
	rank := make([]VertexID, n) // insertion index -> VertexID
	for id, i := range order {
		labels[id] = b.labels[i]
		rank[i] = VertexID(id)
	}
	edges = make([][2]VertexID, len(b.edges))
	for k, e := range b.edges {
		edges[k] = [2]VertexID{rank[e[0]], rank[e[1]]}
	}
	return labels, edges
}

// Build validates the accumulated vertices and edges and returns the Tree.
// It checks non-emptiness, labels, self-loops and duplicate edges,
// |E| = |V|-1, acyclicity and connectivity, in that order.
func (b *Builder) Build() (*Tree, error) {
	if len(b.labels) == 0 {
		return nil, ErrEmpty
	}
	return FromEdges(b.Resolve())
}

// FromEdges builds a Tree on labels, which must be valid and strictly
// ascending (VertexID i is labels[i]), from edges given as VertexID pairs.
// It runs Build's checks in Build's order. The block-cut tree in
// internal/graph builds through it and this package's generators through
// the core behind it, so a tree they emit is never formatted, hashed or
// sorted label by label.
func FromEdges(labels []string, edges [][2]VertexID) (*Tree, error) {
	for i, l := range labels {
		if !validLabel(l) {
			return nil, fmt.Errorf("%w: %q", ErrBadLabel, l)
		}
		if i > 0 && labels[i-1] >= l {
			return nil, fmt.Errorf("%w: %q after %q: labels must be strictly ascending", ErrBadLabel, l, labels[i-1])
		}
	}
	return build(labels, edges)
}

// build is the one constructor of a Tree, behind FromEdges without its label
// checks: the package's generators emit valid ascending labels by
// construction.
func build(labels []string, edges [][2]VertexID) (*Tree, error) {
	n := len(labels)
	if n == 0 {
		return nil, ErrEmpty
	}
	// Self-loops and duplicate edges are diagnosed before the |E| = |V|-1
	// count check: a duplicated edge would otherwise surface as a bogus
	// "contains a cycle" (and a duplicate plus a missing edge as "not
	// connected"), hiding the actual input mistake.
	adj, err := Adjacency(labels, edges)
	if err != nil {
		return nil, err
	}
	if len(edges) != n-1 {
		if len(edges) > n-1 {
			return nil, fmt.Errorf("%w: %d vertices but %d edges", ErrCycle, n, len(edges))
		}
		return nil, fmt.Errorf("%w: %d vertices but %d edges", ErrNotConnected, n, len(edges))
	}
	t := &Tree{labels: labels, adj: adj, rooted: new(rooted)}
	// |E| == |V|-1 plus connectivity implies acyclicity.
	if reached := len(t.bfsOrder(0)); reached != n {
		return nil, fmt.Errorf("%w: reached %d of %d vertices", ErrNotConnected, reached, n)
	}
	return t, nil
}

// NumVertices returns |V(T)|.
func (t *Tree) NumVertices() int { return len(t.labels) }

// Label returns the label of v.
func (t *Tree) Label(v VertexID) string {
	if !t.Valid(v) {
		return fmt.Sprintf("<invalid:%d>", int(v))
	}
	return t.labels[v]
}

// Labels returns the labels of vs, in order.
func (t *Tree) Labels(vs []VertexID) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = t.Label(v)
	}
	return out
}

// Valid reports whether v is a vertex of t.
func (t *Tree) Valid(v VertexID) bool { return v >= 0 && int(v) < len(t.labels) }

// VertexByLabel returns the vertex with the given label: a binary search
// of the labels, which VertexID order keeps sorted.
func (t *Tree) VertexByLabel(label string) (VertexID, error) {
	v, ok := slices.BinarySearch(t.labels, label)
	if !ok {
		return None, fmt.Errorf("%w: %q", ErrUnknownVertex, label)
	}
	return VertexID(v), nil
}

// MustVertex is VertexByLabel for known-good labels; it panics on unknown
// labels and is intended for tests and examples, not library paths.
func (t *Tree) MustVertex(label string) VertexID {
	v, err := t.VertexByLabel(label)
	if err != nil {
		panic(err)
	}
	return v
}

// Neighbors returns the neighbors of v in ascending VertexID (= label) order.
// The returned slice is shared; callers must not modify it.
func (t *Tree) Neighbors(v VertexID) []VertexID { return t.adj[v] }

// Degree returns the number of neighbors of v.
func (t *Tree) Degree(v VertexID) int { return len(t.adj[v]) }

// Root returns the canonical protocol root: the vertex with the
// lexicographically lowest label (Section 7 of the paper). Because IDs are
// assigned in label order, this is always vertex 0.
func (t *Tree) Root() VertexID { return 0 }

// Edges returns all undirected edges as (smaller, larger) VertexID pairs, in
// deterministic order.
func (t *Tree) Edges() [][2]VertexID {
	out := make([][2]VertexID, 0, t.NumVertices()-1)
	for u := VertexID(0); int(u) < t.NumVertices(); u++ {
		for _, v := range t.adj[u] {
			if u < v {
				out = append(out, [2]VertexID{u, v})
			}
		}
	}
	return out
}

// bfsOrder returns vertices reachable from src in BFS order.
func (t *Tree) bfsOrder(src VertexID) []VertexID {
	visited := make([]bool, t.NumVertices())
	order := make([]VertexID, 1, t.NumVertices())
	order[0] = src
	visited[src] = true
	for i := 0; i < len(order); i++ {
		for _, w := range t.adj[order[i]] {
			if !visited[w] {
				visited[w] = true
				order = append(order, w)
			}
		}
	}
	return order
}
