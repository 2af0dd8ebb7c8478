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
// from it:
//
//	Diameter, DiameterPath, CanonicalDiameterPath, IsPath,
//	Dist, ProjectOntoPath, ListConstruction(t, t.Root())   O(1), no allocation
//	Path, EulerList.PathFromRoot, Center                   O(|path|)
//	InHull(S, v)                                           O(|S|)
//	ValidatePath(p)                                        O(|p|)
//	ConvexHull, SafeArea, DistancesFrom, Eccentricity      O(|V|)
//	ListConstruction at any other root                     O(|V| log |V|)
package tree

import (
	"errors"
	"fmt"
	"sort"
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
	labels []string
	index  map[string]VertexID
	adj    [][]VertexID // sorted by VertexID (== label order)
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
// label-pair edge list — the input validation shared by the tree Builder and
// the block-graph builder in internal/graph. Edge direction is ignored:
// "a-b" and "b-a" are the same edge. Errors wrap ErrDuplicate and name the
// offending edge, so a bad edge list fails with the real cause instead of
// surfacing later as a misleading cycle or connectivity error.
func ValidateEdges(edges [][2]string) error {
	type edgeKey struct{ a, b string }
	seen := make(map[edgeKey]bool, len(edges))
	for _, e := range edges {
		a, b := e[0], e[1]
		if a == b {
			return fmt.Errorf("%w: self-loop or duplicate vertex %q", ErrDuplicate, a)
		}
		if a > b {
			a, b = b, a
		}
		k := edgeKey{a, b}
		if seen[k] {
			return fmt.Errorf("%w: edge %q-%q", ErrDuplicate, e[0], e[1])
		}
		seen[k] = true
	}
	return nil
}

// Builder accumulates vertices and edges and validates them into a Tree.
// The zero value is ready to use.
type Builder struct {
	labels []string
	seen   map[string]bool
	edges  [][2]string
}

// AddVertex registers a vertex label. Adding the same label twice is an
// error reported by Build. Labels referenced by AddEdge are registered
// implicitly, so calling AddVertex is only required for isolated
// single-vertex trees.
func (b *Builder) AddVertex(label string) {
	if b.seen == nil {
		b.seen = make(map[string]bool)
	}
	if b.seen[label] {
		b.edges = append(b.edges, [2]string{label, label}) // force duplicate error in Build
		return
	}
	b.seen[label] = true
	b.labels = append(b.labels, label)
}

// AddEdge registers an undirected edge between two labels, registering the
// labels as vertices if they are new.
func (b *Builder) AddEdge(a, c string) {
	if b.seen == nil {
		b.seen = make(map[string]bool)
	}
	for _, l := range []string{a, c} {
		if !b.seen[l] {
			b.seen[l] = true
			b.labels = append(b.labels, l)
		}
	}
	b.edges = append(b.edges, [2]string{a, c})
}

// Build validates the accumulated vertices and edges and returns the Tree.
// It checks non-emptiness, |E| = |V|-1, acyclicity and connectivity.
func (b *Builder) Build() (*Tree, error) {
	n := len(b.labels)
	if n == 0 {
		return nil, ErrEmpty
	}
	labels := make([]string, n)
	copy(labels, b.labels)
	sort.Strings(labels)
	for _, l := range labels {
		if !validLabel(l) {
			return nil, fmt.Errorf("%w: %q", ErrBadLabel, l)
		}
	}
	index := make(map[string]VertexID, n)
	for i, l := range labels {
		index[l] = VertexID(i)
	}
	// Self-loops and duplicate edges are diagnosed before the |E| = |V|-1
	// count check: a duplicated edge would otherwise surface as a bogus
	// "contains a cycle" (and a duplicate plus a missing edge as "not
	// connected"), hiding the actual input mistake.
	if err := ValidateEdges(b.edges); err != nil {
		return nil, err
	}
	if len(b.edges) != n-1 {
		if len(b.edges) > n-1 {
			return nil, fmt.Errorf("%w: %d vertices but %d edges", ErrCycle, n, len(b.edges))
		}
		return nil, fmt.Errorf("%w: %d vertices but %d edges", ErrNotConnected, n, len(b.edges))
	}
	adj := make([][]VertexID, n)
	for _, e := range b.edges {
		u, v := index[e[0]], index[e[1]]
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	t := &Tree{labels: labels, index: index, adj: adj, rooted: new(rooted)}
	for _, ns := range t.adj {
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	}
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

// VertexByLabel returns the vertex with the given label.
func (t *Tree) VertexByLabel(label string) (VertexID, error) {
	v, ok := t.index[label]
	if !ok {
		return None, fmt.Errorf("%w: %q", ErrUnknownVertex, label)
	}
	return v, nil
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
	order := make([]VertexID, 0, t.NumVertices())
	queue := []VertexID{src}
	visited[src] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range t.adj[v] {
			if !visited[w] {
				visited[w] = true
				queue = append(queue, w)
			}
		}
	}
	return order
}
