package tree

import (
	"fmt"
	"slices"
)

// DistancesFrom returns d(src, v) for every vertex v, computed by BFS. It is
// the one O(|V|) distance query left: use it when the whole vector is wanted,
// and Dist for single pairs.
func (t *Tree) DistancesFrom(src VertexID) []int {
	dist := make([]int, t.NumVertices())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []VertexID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range t.adj[v] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Dist returns the length of the unique path P(u, v):
// depth(u) + depth(v) − 2·depth(lca(u, v)) in the compiled form. O(1).
func (t *Tree) Dist(u, v VertexID) int { return t.compiled().list.dist(u, v) }

// Path returns the unique path P(u, v) as the vertex sequence (u, ..., v),
// inclusive of both endpoints: both ends climb their parent pointers to
// lca(u, v). O(|path|), allocating only the returned slice.
func (t *Tree) Path(u, v VertexID) []VertexID { return t.compiled().list.path(u, v) }

// Diameter returns D(T), the length of the longest path, together with the
// endpoints of one such path: endA is the lowest-id vertex farthest from
// vertex 0 and endB the lowest-id vertex farthest from endA (the classic
// double-BFS rule; the Section 4 canonical path, hence the traffic, depends
// on exactly these endpoints). O(1) from the compiled form.
func (t *Tree) Diameter() (d int, endA, endB VertexID) {
	r := t.compiled()
	return len(r.diamPath) - 1, r.diamPath[0], r.diamPath[len(r.diamPath)-1]
}

// DiameterPath returns P(endA, endB) for the endpoints Diameter reports.
// The returned slice is shared; callers must not modify it.
func (t *Tree) DiameterPath() []VertexID { return t.compiled().diamPath }

// CanonicalDiameterPath returns DiameterPath oriented per the paper's
// Section 4 convention: v_1 is the endpoint with the lexicographically lower
// label. On a path-shaped tree this is the whole input space in the one
// numbering every party must share. The returned slice is shared; callers
// must not modify it.
func (t *Tree) CanonicalDiameterPath() []VertexID { return t.compiled().canonPath }

// Eccentricity returns max_v d(u, v).
func (t *Tree) Eccentricity(u VertexID) int {
	e := 0
	for _, d := range t.DistancesFrom(u) {
		if d > e {
			e = d
		}
	}
	return e
}

// Center returns a vertex minimizing eccentricity (a tree has one or two
// centers; the one with the lower VertexID is returned). It is located as
// the midpoint of a diameter path.
func (t *Tree) Center() VertexID {
	p := t.DiameterPath()
	c1 := p[(len(p)-1)/2]
	c2 := p[len(p)/2]
	if c2 < c1 {
		return c2
	}
	return c1
}

// IsPath reports whether the whole tree is a simple path (every vertex has
// degree at most 2). O(1) from the compiled form.
func (t *Tree) IsPath() bool { return t.compiled().isPath }

// ValidatePath checks that p is a well-formed simple path in t: non-empty,
// consecutive vertices adjacent, and no repeated vertex. In a tree a walk
// over adjacent vertices that never steps straight back (p[i] != p[i-2])
// cannot revisit a vertex, so the check is O(|p|) with no per-call set.
func (t *Tree) ValidatePath(p []VertexID) error {
	if len(p) == 0 {
		return fmt.Errorf("tree: empty path")
	}
	for i, v := range p {
		if !t.Valid(v) {
			return fmt.Errorf("%w: id %d", ErrUnknownVertex, int(v))
		}
		if i == 0 {
			continue
		}
		// A repeat that arrives by a non-adjacent hop is still named as a
		// repeat; the scan runs on that failure path only.
		adjacent := t.Adjacent(p[i-1], v)
		if (i >= 2 && v == p[i-2]) || (!adjacent && slices.Contains(p[:i], v)) {
			return fmt.Errorf("tree: path repeats vertex %s", t.Label(v))
		}
		if !adjacent {
			return fmt.Errorf("tree: path vertices %s and %s are not adjacent", t.Label(p[i-1]), t.Label(v))
		}
	}
	return nil
}

// Adjacent reports whether u and v share an edge.
func (t *Tree) Adjacent(u, v VertexID) bool {
	ns := t.adj[u]
	lo, hi := 0, len(ns)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case ns[mid] == v:
			return true
		case ns[mid] < v:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false
}

// ProjectOntoPath returns proj_P(v): the vertex of path p closest to v
// (Section 5 of the paper). The projection is unique in a tree. The path is
// given as a vertex sequence — p must be the simple path P(p[0], p[len-1])
// (ValidatePath) — and the returned value is the index into p of the
// projection, together with the vertex itself.
//
// With a = p[0] and b = p[len-1], the projection is the vertex where the
// three pairwise paths among a, b and v meet: the deepest of lca(a, b),
// lca(a, v) and lca(b, v). Its index is d(a, proj). O(1), no allocation.
func (t *Tree) ProjectOntoPath(p []VertexID, v VertexID) (idx int, proj VertexID) {
	if len(p) == 0 {
		return -1, None
	}
	l := t.compiled().list
	a, b := p[0], p[len(p)-1]
	proj = l.LCA(a, b)
	for _, c := range [2]VertexID{l.LCA(a, v), l.LCA(b, v)} {
		if l.vdepth[c] > l.vdepth[proj] {
			proj = c
		}
	}
	return l.dist(a, proj), proj
}
