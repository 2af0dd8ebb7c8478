package tree

import "sync"

// rooted is a Tree's compiled form: everything the protocol's local
// computations derive from the public tree alone, rooted at Root(). It is
// built by the first query that needs it and never written again.
type rooted struct {
	once sync.Once
	// list is ListConstruction(t, t.Root()): the Euler sequence with its
	// occurrence index and sparse table, plus the parent and depth arrays
	// of the DFS that produced it.
	list *EulerList
	// order is the DFS preorder from Root() (every vertex after its
	// parent); hull and safe-area passes sweep it backwards to fold
	// subtrees into their parents.
	order []VertexID
	// diamPath is P(endA, endB) for the double-BFS endpoints (see Diameter);
	// canonPath is the same path from its lower-label endpoint, Section 4's
	// v_1 (diamPath itself when endA is that endpoint).
	diamPath, canonPath []VertexID
	isPath              bool
}

// compiled returns t's rooted form, building it on first use. Concurrent
// first uses block on one build; afterwards the call is one atomic load.
func (t *Tree) compiled() *rooted {
	r := t.rooted
	r.once.Do(func() { r.build(t) })
	return r
}

func (r *rooted) build(t *Tree) {
	l := newEulerList(t, t.Root())
	r.list = l
	r.order = make([]VertexID, 0, t.NumVertices())
	for i, v := range l.seq {
		if l.FirstIndex(v) == i+1 {
			r.order = append(r.order, v)
		}
	}
	r.isPath = true
	for v := range t.adj {
		if len(t.adj[v]) > 2 {
			r.isPath = false
			break
		}
	}
	// Depth below Root() is distance from vertex 0, so the first BFS of the
	// double-BFS rule is already in hand; the second runs here, once.
	endA := farthest(l.vdepth)
	endB := farthest(t.DistancesFrom(endA))
	r.diamPath = l.path(endA, endB)
	r.canonPath = r.diamPath
	if endA > endB { // VertexID order is label order
		r.canonPath = l.path(endB, endA)
	}
}

// farthest returns the lowest-id vertex at maximum distance.
func farthest(dist []int) VertexID {
	best := VertexID(0)
	for v, d := range dist {
		if d > dist[best] {
			best = VertexID(v)
		}
	}
	return best
}
