package tree

import (
	"fmt"
	"math/bits"
)

// EulerList is the list representation L of a rooted tree produced by
// ListConstruction (Section 6 of the paper): a DFS from the root that records
// each vertex upon every visit — once on entry, and once more after returning
// from each child. For the tree of the paper's Figure 3 rooted at v1 the list
// is [v1 v2 v3 v6 v3 v7 v3 v2 v4 v8 v4 v2 v5 v2 v1].
//
// Lemma 2's guarantees, all checked by the package tests:
//  1. consecutive list entries are adjacent vertices (when |V| > 1);
//  2. |L| <= 2·|V| and every vertex occurs at least once;
//  3. u is in the subtree rooted at v iff all occurrences of u lie within
//     [min L(v), max L(v)];
//  4. for any occurrences i of v and i' of v', lca(v, v') occurs within
//     [min(i,i'), max(i,i')].
//
// Indices follow the paper's convention and are 1-based: L_1 is the first
// element. EulerList is deterministic: children are visited in ascending
// label order, so all parties derive the identical list.
//
// An EulerList is immutable once built and safe for concurrent use; the
// list of the canonical root is built once per Tree and shared by every
// caller (see Tree).
type EulerList struct {
	tree   *Tree
	root   VertexID
	seq    []VertexID // 0-based storage of L_1..L_|L|
	depth  []int      // depth of seq[i] below the root
	parent []VertexID // parent[v] toward the root; parent[root] == None
	vdepth []int      // vdepth[v] = depth of vertex v below the root
	// occ holds every vertex's ascending 1-based occurrence indices back to
	// back: L(v) = occ[occAt[v]:occAt[v+1]]. A vertex occurs once per child
	// plus once on entry, so the offsets follow from the degrees alone.
	occ   []int
	occAt []int
	// sparse table over depth for O(1) range-minimum (LCA) queries:
	// table[k][i] = position in seq of the minimum depth in [i, i+2^k).
	table [][]int32
}

// ListConstruction performs the paper's ListConstruction(T, root) and
// precomputes the LCA index. It is deterministic and O(|V| log |V|) — except
// at the canonical root t.Root(), where it returns the list the Tree compiled
// on first use, shared and read-only, in O(1).
func ListConstruction(t *Tree, root VertexID) (*EulerList, error) {
	if !t.Valid(root) {
		return nil, fmt.Errorf("%w: root id %d", ErrUnknownVertex, int(root))
	}
	if root == t.Root() {
		return t.compiled().list, nil
	}
	return newEulerList(t, root), nil
}

// newEulerList runs the DFS from root (children in ascending VertexID =
// label order) and builds the range-minimum index.
func newEulerList(t *Tree, root VertexID) *EulerList {
	n := t.NumVertices()
	l := &EulerList{
		tree:   t,
		root:   root,
		seq:    make([]VertexID, 0, 2*n-1),
		depth:  make([]int, 0, 2*n-1),
		parent: make([]VertexID, n),
		vdepth: make([]int, n),
		occ:    make([]int, 2*n-1),
		occAt:  make([]int, n+1),
	}
	for v := 0; v < n; v++ {
		k := t.Degree(VertexID(v))
		if VertexID(v) == root {
			k++
		}
		l.occAt[v+1] = l.occAt[v] + k
	}
	seen := make([]int, n) // occurrences of v recorded so far
	record := func(v VertexID) {
		l.seq = append(l.seq, v)
		l.depth = append(l.depth, l.vdepth[v])
		l.occ[l.occAt[v]+seen[v]] = len(l.seq) // 1-based
		seen[v]++
	}
	next := make([]int, n) // next index into t.Neighbors(v) to consider
	l.parent[root] = None
	record(root)
	for v := root; v != None; {
		ns := t.Neighbors(v)
		if next[v] < len(ns) && ns[next[v]] == l.parent[v] {
			next[v]++ // the one neighbor that is not a child
		}
		if next[v] < len(ns) {
			w := ns[next[v]]
			next[v]++
			l.parent[w], l.vdepth[w] = v, l.vdepth[v]+1
			record(w)
			v = w
			continue
		}
		// All children done: return to the parent and re-record it (the
		// backtrack visit).
		if v = l.parent[v]; v != None {
			record(v)
		}
	}
	l.buildRMQ()
	return l
}

// Len returns |L|.
func (l *EulerList) Len() int { return len(l.seq) }

// Root returns the root vertex the list was built from.
func (l *EulerList) Root() VertexID { return l.root }

// Tree returns the underlying tree.
func (l *EulerList) Tree() *Tree { return l.tree }

// At returns L_i (1-based, per the paper). It returns an error for
// out-of-range i so that protocol code can surface adversarial indices.
func (l *EulerList) At(i int) (VertexID, error) {
	if i < 1 || i > len(l.seq) {
		return None, fmt.Errorf("tree: euler index %d out of range [1,%d]", i, len(l.seq))
	}
	return l.seq[i-1], nil
}

// Occurrences returns L(v): the ascending 1-based indices at which v occurs.
// The returned slice is shared; callers must not modify it.
func (l *EulerList) Occurrences(v VertexID) []int { return l.occ[l.occAt[v]:l.occAt[v+1]] }

// FirstIndex returns min L(v), the index parties feed into RealAA(1) in
// PathsFinder.
func (l *EulerList) FirstIndex(v VertexID) int { return l.occ[l.occAt[v]] }

// Sequence returns a copy of the full list as vertex IDs, L_1..L_|L|.
func (l *EulerList) Sequence() []VertexID {
	out := make([]VertexID, len(l.seq))
	copy(out, l.seq)
	return out
}

// Depth returns the depth (distance from the root) of L_i (1-based).
func (l *EulerList) Depth(i int) int { return l.depth[i-1] }

func (l *EulerList) buildRMQ() {
	n := len(l.seq)
	levels := bits.Len(uint(n))
	l.table = make([][]int32, levels)
	l.table[0] = make([]int32, n)
	for i := range l.table[0] {
		l.table[0][i] = int32(i)
	}
	for k := 1; k < levels; k++ {
		width := 1 << k
		l.table[k] = make([]int32, n-width+1)
		for i := range l.table[k] {
			a := l.table[k-1][i]
			b := l.table[k-1][i+width/2]
			if l.depth[b] < l.depth[a] {
				a = b
			}
			l.table[k][i] = a
		}
	}
}

// argminDepth returns the position (0-based) of the minimum depth in the
// 0-based half-open range [lo, hi).
func (l *EulerList) argminDepth(lo, hi int) int {
	k := bits.Len(uint(hi-lo)) - 1
	a := l.table[k][lo]
	b := l.table[k][hi-(1<<k)]
	if l.depth[b] < l.depth[a] {
		a = b
	}
	return int(a)
}

// LCA returns the lowest common ancestor of u and v with respect to the
// list's root, via the Bender–Farach-Colton Euler-tour + RMQ reduction the
// paper cites [8]. O(1).
func (l *EulerList) LCA(u, v VertexID) VertexID {
	i, j := l.FirstIndex(u)-1, l.FirstIndex(v)-1
	if i > j {
		i, j = j, i
	}
	return l.seq[l.argminDepth(i, j+1)]
}

// dist returns d(u, v) = depth(u) + depth(v) − 2·depth(lca(u, v)).
func (l *EulerList) dist(u, v VertexID) int {
	return l.vdepth[u] + l.vdepth[v] - 2*l.vdepth[l.LCA(u, v)]
}

// path returns P(u, v): both ends climb their parent pointers to lca(u, v).
func (l *EulerList) path(u, v VertexID) []VertexID {
	c := l.LCA(u, v)
	path := make([]VertexID, l.vdepth[u]+l.vdepth[v]-2*l.vdepth[c]+1)
	i := 0
	for x := u; x != c; x = l.parent[x] {
		path[i] = x
		i++
	}
	path[i] = c
	i = len(path) - 1
	for x := v; x != c; x = l.parent[x] {
		path[i] = x
		i--
	}
	return path
}

// InSubtree reports whether u lies in the subtree rooted at v (with respect
// to the list's root), using Lemma 2 property 3.
func (l *EulerList) InSubtree(u, v VertexID) bool {
	vo, uo := l.Occurrences(v), l.Occurrences(u)
	return uo[0] >= vo[0] && uo[len(uo)-1] <= vo[len(vo)-1]
}

// PathFromRoot returns P(root, L_i) for a 1-based list index i, clamped
// semantics excluded: i must be in range. It climbs the parent array, so it
// costs O(|path|) and allocates only the returned slice.
func (l *EulerList) PathFromRoot(i int) ([]VertexID, error) {
	v, err := l.At(i)
	if err != nil {
		return nil, err
	}
	path := make([]VertexID, l.depth[i-1]+1)
	for k := len(path) - 1; k >= 0; k-- {
		path[k], v = v, l.parent[v]
	}
	return path, nil
}
