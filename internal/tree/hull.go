package tree

// ConvexHull returns ⟨S⟩: the vertex set of the smallest connected subtree
// containing every vertex of S (Section 2 of the paper). Equivalently,
// w ∈ ⟨S⟩ iff w lies on P(u, v) for some u, v ∈ S. The result is returned in
// ascending VertexID order. An empty S yields an empty hull.
//
// The computation takes the rooting of the compiled form, counts S-vertices
// in each subtree, and includes v iff the S-vertices do not all lie strictly
// in one component of T − v (or v ∈ S). This is O(|V|).
func (t *Tree) ConvexHull(s []VertexID) []VertexID {
	if len(s) == 0 {
		return nil
	}
	inS := make([]bool, t.NumVertices())
	k := 0
	for _, v := range s {
		if !inS[v] {
			inS[v] = true
			k++
		}
	}
	if k == 1 {
		for v := range inS {
			if inS[v] {
				return []VertexID{VertexID(v)}
			}
		}
	}
	r := t.compiled()
	order, parent := r.order, r.list.parent
	// cnt[v] = number of S-vertices in the subtree rooted at v (root 0).
	cnt := make([]int, t.NumVertices())
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if inS[v] {
			cnt[v]++
		}
		if parent[v] != None {
			cnt[parent[v]] += cnt[v]
		}
	}
	hull := make([]VertexID, 0, t.NumVertices())
	for v := VertexID(0); int(v) < t.NumVertices(); v++ {
		if inS[v] {
			hull = append(hull, v)
			continue
		}
		// Components of T − v: one per child subtree, plus the "above"
		// component through parent[v] holding k − cnt[v] S-vertices.
		nonEmpty := 0
		if cnt[v] < k {
			nonEmpty++ // the component containing the parent side
		}
		for _, w := range t.adj[v] {
			if w == parent[v] {
				continue
			}
			if cnt[w] > 0 {
				nonEmpty++
				if nonEmpty >= 2 {
					break
				}
			}
		}
		if nonEmpty >= 2 {
			hull = append(hull, v)
		}
	}
	return hull
}

// InHull reports whether v lies in ⟨S⟩ without materializing the hull: ⟨S⟩ is
// the union of the paths P(s₀, sᵢ), so v ∈ ⟨S⟩ iff some sᵢ has
// d(s₀, v) + d(v, sᵢ) = d(s₀, sᵢ). O(|S|), no allocation.
func (t *Tree) InHull(s []VertexID, v VertexID) bool {
	if len(s) == 0 {
		return false
	}
	l := t.compiled().list
	d0 := l.dist(s[0], v)
	for _, si := range s {
		if d0+l.dist(v, si) == l.dist(s[0], si) {
			return true
		}
	}
	return false
}

// SafeArea returns the t-robust safe area of a multiset m of vertices: the
// set of vertices v such that v ∈ ⟨S⟩ for *every* sub-multiset S of m
// obtained by discarding at most f elements. This is the safe-area notion of
// iteration-based AA on trees (Nowak & Rybicki, DISC 2019), used by the
// baseline protocol.
//
// Characterization used (proved by the component argument): v is in the safe
// area iff every component C of T − v contains at most len(m) − f − 1
// elements of m. ("⇐": any len(m)−f-subset must then either contain v or meet
// two components, so its hull contains v. "⇒": a component holding
// ≥ len(m)−f elements admits discarding the ≤ f others, leaving a hull inside
// C that excludes v.)
//
// The safe area of a multiset with len(m) > f is a non-empty subtree when the
// hull structure permits; callers must handle an empty result when
// len(m) <= f. Results are in ascending VertexID order.
func (t *Tree) SafeArea(m []VertexID, f int) []VertexID {
	if len(m) == 0 || len(m) <= f {
		return nil
	}
	weight := make([]int, t.NumVertices()) // multiplicity of each vertex in m
	for _, v := range m {
		weight[v]++
	}
	total := len(m)
	r := t.compiled()
	order, parent := r.order, r.list.parent
	cnt := make([]int, t.NumVertices()) // multiset weight within subtree of v
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		cnt[v] += weight[v]
		if parent[v] != None {
			cnt[parent[v]] += cnt[v]
		}
	}
	limit := total - f - 1 // max elements allowed in any one component
	safe := make([]VertexID, 0, t.NumVertices())
	for v := VertexID(0); int(v) < t.NumVertices(); v++ {
		ok := true
		if above := total - cnt[v]; above > limit {
			ok = false
		}
		if ok {
			for _, w := range t.adj[v] {
				if w == parent[v] {
					continue
				}
				if cnt[w] > limit {
					ok = false
					break
				}
			}
		}
		if ok {
			safe = append(safe, v)
		}
	}
	return safe
}

// InducedSubtree returns a new Tree containing exactly the vertices vs
// (which must induce a connected subgraph) with their original labels.
func (t *Tree) InducedSubtree(vs []VertexID) (*Tree, error) {
	keep := make(map[VertexID]bool, len(vs))
	for _, v := range vs {
		keep[v] = true
	}
	var b Builder
	for _, v := range vs {
		b.AddVertex(t.Label(v))
	}
	for _, e := range t.Edges() {
		if keep[e[0]] && keep[e[1]] {
			b.AddEdge(t.Label(e[0]), t.Label(e[1]))
		}
	}
	// Builder counts AddVertex'd labels that also appear in AddEdge once.
	return b.Build()
}
