package graph_test

// Hull tests on cycles, where geodesic graph hulls and tree hulls diverge:
// an antipodal pair on C4 has two shortest paths, so its graph hull is the
// whole cycle, while the hull in any spanning tree (a path) is a single
// path. Pinning both sides documents why the checker's validity invariant
// must use graph.ConvexHull rather than reusing tree.ConvexHull on some
// spanning structure.

import (
	"reflect"
	"testing"

	"treeaa/internal/graph"
	"treeaa/internal/tree"
)

func vids(ids ...int) []tree.VertexID {
	out := make([]tree.VertexID, len(ids))
	for i, v := range ids {
		out[i] = tree.VertexID(v)
	}
	return out
}

func TestIntervalCycle(t *testing.T) {
	c4 := graph.NewCycle(4) // v1-v2-v3-v4-v1, ids 0..3 in label order
	for _, tc := range []struct {
		g    *graph.Graph
		u, v int
		want []tree.VertexID
	}{
		{c4, 0, 1, vids(0, 1)},                   // adjacent: the edge
		{c4, 0, 2, vids(0, 1, 2, 3)},             // antipodal on C4: two geodesics
		{graph.NewCycle(5), 0, 2, vids(0, 1, 2)}, // odd cycle: unique geodesic
	} {
		got := tc.g.Interval(tree.VertexID(tc.u), tree.VertexID(tc.v))
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Interval(%d, %d) = %v, want %v", tc.u, tc.v, got, tc.want)
		}
	}
}

// TestHullDivergesFromTreeHull pins the C4 divergence: the graph hull of an
// antipodal pair is all four vertices, while the hull of the corresponding
// pair in the path tree obtained by deleting one cycle edge is only the
// three-vertex path between them.
func TestHullDivergesFromTreeHull(t *testing.T) {
	c4 := graph.NewCycle(4)
	gh := c4.ConvexHull(vids(0, 2))
	if !reflect.DeepEqual(gh, vids(0, 1, 2, 3)) {
		t.Fatalf("C4 graph hull of antipodes = %v, want all vertices", gh)
	}

	// The same vertices on the spanning path v1-v2-v3-v4.
	tr, err := tree.ParseString("v1 - v2\nv2 - v3\nv3 - v4\n")
	if err != nil {
		t.Fatal(err)
	}
	th := tr.ConvexHull(vids(0, 2))
	if !reflect.DeepEqual(th, vids(0, 1, 2)) {
		t.Fatalf("path tree hull = %v, want {0,1,2}", th)
	}
	if len(gh) <= len(th) {
		t.Fatalf("expected graph hull (%v) to strictly contain tree hull (%v)", gh, th)
	}
}

func TestHullOddCycle(t *testing.T) {
	c5 := graph.NewCycle(5)
	// Unique geodesics: the hull of {v1, v3} is just the arc between them.
	if got := c5.ConvexHull(vids(0, 2)); !reflect.DeepEqual(got, vids(0, 1, 2)) {
		t.Fatalf("C5 hull of {0,2} = %v, want {0,1,2}", got)
	}
	// Three spread vertices cover geodesics in both directions: whole cycle.
	if got := c5.ConvexHull(vids(0, 2, 3)); !reflect.DeepEqual(got, vids(0, 1, 2, 3, 4)) {
		t.Fatalf("C5 hull of {0,2,3} = %v, want all vertices", got)
	}
}

func TestHullOnBlockGraphMatchesBlockCutStructure(t *testing.T) {
	g := graph.NewCliqueChain(3, 3) // triangles sharing cut vertices, 7 vertices
	// Endpoints of the chain: the hull must pass through both cut vertices
	// and include every block between them (cliques are convex-closed, so
	// each traversed triangle joins whole).
	ends := []tree.VertexID{0, tree.VertexID(g.NumVertices() - 1)}
	hull := g.ConvexHull(ends)
	for _, cut := range []tree.VertexID{2, 4} {
		if !g.InHull(ends, cut) {
			t.Fatalf("cut vertex %d missing from chain hull %v", int(cut), hull)
		}
	}
	// A singleton hull is itself.
	if got := g.ConvexHull(vids(3)); !reflect.DeepEqual(got, vids(3)) {
		t.Fatalf("singleton hull = %v", got)
	}
	// Empty set: empty hull.
	if got := g.ConvexHull(nil); got != nil {
		t.Fatalf("empty hull = %v, want nil", got)
	}
}

func TestDistAndDiameter(t *testing.T) {
	c6 := graph.NewCycle(6)
	if d := c6.Dist(0, 3); d != 3 {
		t.Fatalf("C6 antipodal distance = %d", d)
	}
	if d := c6.Diameter(); d != 3 {
		t.Fatalf("C6 diameter = %d", d)
	}
	if d := graph.NewClique(7).Diameter(); d != 1 {
		t.Fatalf("K7 diameter = %d", d)
	}
	cc := graph.NewCliqueChain(4, 3)
	if d := cc.Diameter(); d != 4 {
		t.Fatalf("cliquechain:4:3 diameter = %d, want 4", d)
	}
}
