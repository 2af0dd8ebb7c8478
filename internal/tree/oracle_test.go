package tree

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The BFS implementations the compiled form replaced, kept verbatim as the
// oracles the differential tests below compare every query against.

// bfsDist is the former Tree.Dist.
func bfsDist(t *Tree, u, v VertexID) int {
	if u == v {
		return 0
	}
	return t.DistancesFrom(u)[v]
}

// bfsPath is the former Tree.Path: BFS from v recording parents, then walk
// from u toward v.
func bfsPath(t *Tree, u, v VertexID) []VertexID {
	if u == v {
		return []VertexID{u}
	}
	parent := make([]VertexID, t.NumVertices())
	for i := range parent {
		parent[i] = None
	}
	parent[v] = v
	queue := []VertexID{v}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if x == u {
			break
		}
		for _, w := range t.adj[x] {
			if parent[w] == None {
				parent[w] = x
				queue = append(queue, w)
			}
		}
	}
	path := []VertexID{u}
	for x := u; x != v; {
		x = parent[x]
		path = append(path, x)
	}
	return path
}

// bfsDiameter is the former Tree.Diameter: the classic double BFS, ties to
// the lowest id.
func bfsDiameter(t *Tree) (d int, endA, endB VertexID) {
	endA = farthest(t.DistancesFrom(0))
	distA := t.DistancesFrom(endA)
	endB = farthest(distA)
	return distA[endB], endA, endB
}

// bfsProjectOntoPath is the former Tree.ProjectOntoPath: walk outward from v;
// the first path vertex reached is the projection.
func bfsProjectOntoPath(t *Tree, p []VertexID, v VertexID) (int, VertexID) {
	pos := make(map[VertexID]int, len(p))
	for i, u := range p {
		pos[u] = i
	}
	visited := make([]bool, t.NumVertices())
	visited[v] = true
	queue := []VertexID{v}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if i, ok := pos[x]; ok {
			return i, x
		}
		for _, w := range t.adj[x] {
			if !visited[w] {
				visited[w] = true
				queue = append(queue, w)
			}
		}
	}
	return -1, None
}

// ProjectAllOntoPath returns, for every vertex v of the tree, the index into
// p of proj_P(v), by a single multi-source BFS from the path. It has no
// caller outside the tests, where it is the second projection reference.
func (t *Tree) ProjectAllOntoPath(p []VertexID) []int {
	proj := make([]int, t.NumVertices())
	for i := range proj {
		proj[i] = -1
	}
	queue := make([]VertexID, 0, len(p))
	for i, u := range p {
		proj[u] = i
		queue = append(queue, u)
	}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, w := range t.adj[x] {
			if proj[w] < 0 {
				proj[w] = proj[x]
				queue = append(queue, w)
			}
		}
	}
	return proj
}

// bfsHull is ⟨S⟩ by definition: the union of the BFS paths between members.
func bfsHull(t *Tree, s []VertexID) map[VertexID]bool {
	hull := make(map[VertexID]bool)
	for _, u := range s {
		for _, v := range s {
			for _, w := range bfsPath(t, u, v) {
				hull[w] = true
			}
		}
	}
	return hull
}

// checkAgainstBFS compares every compiled-form query on tr with its oracle.
func checkAgainstBFS(t *testing.T, name string, tr *Tree, rng *rand.Rand) {
	t.Helper()
	n := tr.NumVertices()
	d, a, b := tr.Diameter()
	if wd, wa, wb := bfsDiameter(tr); d != wd || a != wa || b != wb {
		t.Fatalf("%s: Diameter = (%d, %s, %s), want (%d, %s, %s)", name,
			d, tr.Label(a), tr.Label(b), wd, tr.Label(wa), tr.Label(wb))
	}
	if got, want := tr.DiameterPath(), bfsPath(tr, a, b); !slices.Equal(got, want) {
		t.Fatalf("%s: DiameterPath = %v, want %v", name, tr.Labels(got), tr.Labels(want))
	}
	wantCanon := bfsPath(tr, min(a, b), max(a, b)) // VertexID order is label order
	if got := tr.CanonicalDiameterPath(); !slices.Equal(got, wantCanon) || tr.Label(got[0]) > tr.Label(got[len(got)-1]) {
		t.Fatalf("%s: CanonicalDiameterPath = %v, want %v", name, tr.Labels(got), tr.Labels(wantCanon))
	}
	wantIsPath := true
	for v := 0; v < n; v++ {
		wantIsPath = wantIsPath && tr.Degree(VertexID(v)) <= 2
	}
	if tr.IsPath() != wantIsPath {
		t.Fatalf("%s: IsPath = %v, want %v", name, tr.IsPath(), wantIsPath)
	}
	for u := VertexID(0); int(u) < n; u++ {
		for v := VertexID(0); int(v) < n; v++ {
			if got, want := tr.Dist(u, v), bfsDist(tr, u, v); got != want {
				t.Fatalf("%s: Dist(%s,%s) = %d, want %d", name, tr.Label(u), tr.Label(v), got, want)
			}
			if got, want := tr.Path(u, v), bfsPath(tr, u, v); !slices.Equal(got, want) {
				t.Fatalf("%s: Path(%s,%s) = %v, want %v", name, tr.Label(u), tr.Label(v), tr.Labels(got), tr.Labels(want))
			}
		}
	}
	// Projections onto random paths, root-anchored paths (PathsFinder's
	// output shape) and the diameter path (the Section 4 shape).
	paths := [][]VertexID{tr.DiameterPath()}
	for k := 0; k < 6; k++ {
		u, v := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
		paths = append(paths, bfsPath(tr, u, v), bfsPath(tr, tr.Root(), v))
	}
	for _, p := range paths {
		all := tr.ProjectAllOntoPath(p)
		for v := VertexID(0); int(v) < n; v++ {
			idx, proj := tr.ProjectOntoPath(p, v)
			wi, wp := bfsProjectOntoPath(tr, p, v)
			if idx != wi || proj != wp || all[v] != wi {
				t.Fatalf("%s: ProjectOntoPath(%v, %s) = (%d, %s), want (%d, %s), ProjectAll %d", name,
					tr.Labels(p), tr.Label(v), idx, tr.Label(proj), wi, tr.Label(wp), all[v])
			}
		}
	}
	for k := 0; k < 6; k++ {
		s := make([]VertexID, 1+rng.Intn(5))
		for i := range s {
			s[i] = VertexID(rng.Intn(n))
		}
		want := bfsHull(tr, s)
		for v := VertexID(0); int(v) < n; v++ {
			if got := tr.InHull(s, v); got != want[v] {
				t.Fatalf("%s: InHull(%v, %s) = %v, want %v", name, tr.Labels(s), tr.Label(v), got, want[v])
			}
		}
		if got := tr.ConvexHull(s); len(got) != len(want) {
			t.Fatalf("%s: ConvexHull(%v) = %v, want %d vertices", name, tr.Labels(s), tr.Labels(got), len(want))
		}
	}
	if tr.InHull(nil, tr.Root()) {
		t.Fatalf("%s: InHull(∅, root) = true", name)
	}
}

// TestCompiledMatchesBFS is the differential test of the compiled form:
// every generator shape and 200 seeded random trees, all pairs.
func TestCompiledMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	shapes := map[string]*Tree{
		"single":      NewPath(1),
		"edge":        NewPath(2),
		"path":        NewPath(17),
		"star":        NewStar(9),
		"caterpillar": NewCaterpillar(6, 2),
		"spider":      NewSpider(3, 4),
		"random":      NewRandom(30, rand.New(rand.NewSource(5))),
		"binary":      NewCompleteKAry(2, 4),
		"ternary":     NewCompleteKAry(3, 2),
		"figure3":     Figure3Tree(),
	}
	for name, tr := range shapes {
		checkAgainstBFS(t, name, tr, rng)
	}
	for trial := 0; trial < 200; trial++ {
		tr := RandomPruefer(1+rng.Intn(40), rng)
		checkAgainstBFS(t, fmt.Sprintf("pruefer trial %d", trial), tr, rng)
	}
}

// TestCompiledQueriesDoNotAllocate pins the point of compiling once: on a
// warmed tree the O(1) queries allocate nothing and the path queries
// allocate exactly the slice they return.
func TestCompiledQueriesDoNotAllocate(t *testing.T) {
	tr := NewRandom(4096, rand.New(rand.NewSource(1)))
	d, a, b := tr.Diameter() // warm: the first query builds the tables
	path := tr.Path(a, b)
	u, v := VertexID(1234), VertexID(4001)
	l, err := ListConstruction(tr, tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	free := map[string]func(){
		"Diameter": func() {
			if got, _, _ := tr.Diameter(); got != d {
				t.Fatal("diameter changed")
			}
		},
		"IsPath": func() { _ = tr.IsPath() },
		"Dist":   func() { _ = tr.Dist(u, v) },
		"ListConstruction": func() {
			if got, _ := ListConstruction(tr, tr.Root()); got != l {
				t.Fatal("canonical-root list is not shared")
			}
		},
		"ProjectOntoPath": func() { _, _ = tr.ProjectOntoPath(path, u) },
		"InHull":          func() { _ = tr.InHull(path[:3], u) },
	}
	for name, f := range free {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
	one := map[string]func(){
		"Path":         func() { _ = tr.Path(u, v) },
		"PathFromRoot": func() { _, _ = l.PathFromRoot(l.FirstIndex(v)) },
	}
	for name, f := range one {
		if n := testing.AllocsPerRun(100, f); n != 1 {
			t.Errorf("%s allocates %v times per call, want exactly the returned slice", name, n)
		}
	}
}

// TestJSONRoundTripThenQuery drives the *t = *built path of UnmarshalJSON:
// the decoded value must compile and answer like the original, whether or
// not the original was queried first.
func TestJSONRoundTripThenQuery(t *testing.T) {
	orig := NewRandom(60, rand.New(rand.NewSource(9)))
	_, _, _ = orig.Diameter()
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Tree
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !orig.Equal(&back) {
		t.Fatal("round trip changed the tree")
	}
	checkAgainstBFS(t, "decoded", &back, rand.New(rand.NewSource(10)))
	l, err := ListConstruction(&back, back.Root())
	if err != nil {
		t.Fatal(err)
	}
	if l.Tree() != &back {
		t.Error("decoded tree's shared list points at another Tree")
	}
	want, _ := ListConstruction(orig, orig.Root())
	if !slices.Equal(l.Sequence(), want.Sequence()) {
		t.Error("decoded tree's Euler list differs from the original's")
	}
}

// TestListConstructionOtherRoot: only the canonical root is shared; any
// other root still builds its own list, with its own parent climbing.
func TestListConstructionOtherRoot(t *testing.T) {
	tr := Figure3Tree()
	root := tr.MustVertex("v2")
	l, err := ListConstruction(tr, root)
	if err != nil {
		t.Fatal(err)
	}
	want := "v2 v1 v2 v3 v6 v3 v7 v3 v2 v4 v8 v4 v2 v5 v2"
	if got := strings.Join(tr.Labels(l.Sequence()), " "); got != want {
		t.Errorf("list at v2 = %s, want %s", got, want)
	}
	if again, _ := ListConstruction(tr, root); again == l {
		t.Error("non-canonical root returned a shared list")
	}
	if got := l.LCA(tr.MustVertex("v1"), tr.MustVertex("v8")); got != root {
		t.Errorf("lca(v1,v8) at root v2 = %s, want v2", tr.Label(got))
	}
	for i := 1; i <= l.Len(); i++ {
		got, err := l.PathFromRoot(i)
		if err != nil {
			t.Fatal(err)
		}
		if want := bfsPath(tr, root, mustAt(l, i)); !slices.Equal(got, want) {
			t.Errorf("PathFromRoot(%d) = %v, want %v", i, tr.Labels(got), tr.Labels(want))
		}
	}
	canon, _ := ListConstruction(tr, tr.Root())
	for i := 1; i <= canon.Len(); i++ {
		got, _ := canon.PathFromRoot(i)
		if want := bfsPath(tr, tr.Root(), mustAt(canon, i)); !slices.Equal(got, want) {
			t.Errorf("canonical PathFromRoot(%d) = %v, want %v", i, tr.Labels(got), tr.Labels(want))
		}
	}
}

// TestValidatePathTable: dropping the per-call set changed no verdict and
// no message.
func TestValidatePathTable(t *testing.T) {
	tr := Figure3Tree()
	id := func(labels ...string) []VertexID {
		out := make([]VertexID, len(labels))
		for i, l := range labels {
			out[i] = tr.MustVertex(l)
		}
		return out
	}
	tests := []struct {
		name string
		path []VertexID
		want string // "" = valid
	}{
		{"root path", id("v1", "v2", "v3", "v6"), ""},
		{"leaf to leaf", id("v6", "v3", "v2", "v4", "v8"), ""},
		{"single vertex", id("v5"), ""},
		{"empty", nil, "tree: empty path"},
		{"immediate back-step", id("v1", "v2", "v1"), "tree: path repeats vertex v1"},
		{"back-step mid-path", id("v1", "v2", "v3", "v2", "v4"), "tree: path repeats vertex v2"},
		{"stutter", id("v2", "v2"), "tree: path repeats vertex v2"},
		{"repeat by a non-adjacent hop", id("v1", "v2", "v5", "v1"), "tree: path repeats vertex v1"},
		{"non-adjacent hop", id("v1", "v5"), "tree: path vertices v1 and v5 are not adjacent"},
		{"non-adjacent hop mid-path", id("v1", "v2", "v3", "v8"), "tree: path vertices v3 and v8 are not adjacent"},
		{"unknown id", []VertexID{tr.MustVertex("v1"), 99}, "tree: unknown vertex: id 99"},
		{"negative id", []VertexID{None}, "tree: unknown vertex: id -1"},
	}
	for _, tc := range tests {
		err := tr.ValidatePath(tc.path)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("%s: error = %v, want %q", tc.name, err, tc.want)
		}
	}
}
