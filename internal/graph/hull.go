package graph

// Geodesic convex hulls. The interval I(u, v) is the set of vertices on
// shortest u–v paths; a set is (geodesically) convex when it contains the
// interval of each of its pairs, and the hull ⟨S⟩ is the smallest convex
// superset of S. On trees this coincides with tree.ConvexHull; on graphs
// with cycles the two diverge — on C4, ⟨{u, antipode(u)}⟩ is the whole
// cycle, while any spanning tree's hull is a single path — which is exactly
// the divergence the hull tests pin.
//
// The computation is the direct fixpoint: close S under pairwise intervals
// until nothing is added. Each round is O(|S|² · |V|) on top of one BFS per
// member; input-space graphs are small (tens of vertices), and hulls are
// only computed by checkers and smoke drivers, never on the protocol hot
// path.

import (
	"sort"

	"treeaa/internal/tree"
)

// Interval returns I(u, v): every vertex w with d(u,w) + d(w,v) = d(u,v),
// in ascending order.
func (g *Graph) Interval(u, v tree.VertexID) []tree.VertexID {
	du := g.DistancesFrom(u)
	dv := g.DistancesFrom(v)
	var out []tree.VertexID
	for w := tree.VertexID(0); int(w) < g.NumVertices(); w++ {
		if du[w]+dv[w] == du[v] {
			out = append(out, w)
		}
	}
	return out
}

// ConvexHull returns ⟨S⟩, the geodesic convex hull of S, in ascending
// order. An empty S yields an empty hull.
func (g *Graph) ConvexHull(s []tree.VertexID) []tree.VertexID {
	if len(s) == 0 {
		return nil
	}
	n := g.NumVertices()
	in := make([]bool, n)
	members := make([]tree.VertexID, 0, n)
	add := func(v tree.VertexID) {
		if !in[v] {
			in[v] = true
			members = append(members, v)
		}
	}
	for _, v := range s {
		add(v)
	}
	// Each member's distance row is computed once per call, so the call
	// runs O(|hull|) BFS however many rounds the fixpoint takes.
	rows := make([][]int, n)
	row := func(v tree.VertexID) []int {
		if rows[v] == nil {
			rows[v] = g.DistancesFrom(v)
		}
		return rows[v]
	}
	// Fixpoint: new members pair against everything already in the set.
	// done marks the prefix of members whose pairwise intervals are closed.
	done := 0
	for done < len(members) {
		fresh := members[done:]
		done = len(members)
		for _, u := range fresh {
			du := row(u)
			for i := 0; i < done; i++ {
				v := members[i]
				if u == v {
					continue
				}
				dv := row(v)
				for w := tree.VertexID(0); int(w) < n; w++ {
					if !in[w] && du[w]+dv[w] == du[v] {
						add(w)
					}
				}
			}
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	return members
}

// InHull reports whether v lies in ⟨S⟩ without materializing the hull's
// sorted order.
func (g *Graph) InHull(s []tree.VertexID, v tree.VertexID) bool {
	for _, u := range g.ConvexHull(s) {
		if u == v {
			return true
		}
	}
	return false
}
