package tree

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func TestBuilderValidTree(t *testing.T) {
	tr := Figure3Tree()
	if got := tr.NumVertices(); got != 8 {
		t.Fatalf("NumVertices = %d, want 8", got)
	}
	if got := tr.Label(tr.Root()); got != "v1" {
		t.Errorf("root label = %q, want v1 (lowest lexicographic)", got)
	}
	v2 := tr.MustVertex("v2")
	if got := tr.Degree(v2); got != 4 {
		t.Errorf("degree(v2) = %d, want 4", got)
	}
	wantN := []string{"v1", "v3", "v4", "v5"}
	for i, w := range tr.Neighbors(v2) {
		if tr.Label(w) != wantN[i] {
			t.Errorf("neighbors(v2)[%d] = %s, want %s", i, tr.Label(w), wantN[i])
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	tests := []struct {
		name    string
		build   func() *Builder
		wantErr error
	}{
		{
			name:    "empty",
			build:   func() *Builder { return &Builder{} },
			wantErr: ErrEmpty,
		},
		{
			name: "cycle",
			build: func() *Builder {
				var b Builder
				b.AddEdge("a", "b")
				b.AddEdge("b", "c")
				b.AddEdge("c", "a")
				return &b
			},
			wantErr: ErrCycle,
		},
		{
			name: "disconnected",
			build: func() *Builder {
				var b Builder
				b.AddEdge("a", "b")
				b.AddVertex("c")
				b.AddVertex("d")
				b.AddEdge("c", "d")
				return &b
			},
			wantErr: ErrNotConnected,
		},
		{
			name: "duplicate edge",
			build: func() *Builder {
				var b Builder
				b.AddEdge("a", "b")
				b.AddEdge("b", "a")
				b.AddVertex("c") // keep |E| = |V|-1 so the duplicate check fires
				return &b
			},
			wantErr: ErrDuplicate,
		},
		{
			name: "duplicate vertex",
			build: func() *Builder {
				var b Builder
				b.AddVertex("a")
				b.AddVertex("a")
				b.AddVertex("b") // |E|=1 (forced self-loop marker), |V|=2
				return &b
			},
			wantErr: ErrDuplicate,
		},
		{
			name: "self loop",
			build: func() *Builder {
				var b Builder
				b.AddEdge("a", "a")
				b.AddVertex("b")
				return &b
			},
			wantErr: ErrDuplicate,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.build().Build()
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Build() error = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// TestBuilderDuplicateEdgeDiagnosis pins the error *identity and message*
// for inputs that used to be misreported: a duplicated edge satisfies
// |E| > |V|-1 and formerly surfaced as "contains a cycle", and a self-loop
// plus a missing edge as "not connected". Both must now name the real
// mistake via ErrDuplicate before any count check runs.
func TestBuilderDuplicateEdgeDiagnosis(t *testing.T) {
	tests := []struct {
		name    string
		build   func() *Builder
		wantErr error
		wantMsg string
	}{
		{
			name: "duplicate edge over full tree", // |E| = |V|, was ErrCycle
			build: func() *Builder {
				var b Builder
				b.AddEdge("a", "b")
				b.AddEdge("b", "c")
				b.AddEdge("a", "b")
				return &b
			},
			wantErr: ErrDuplicate,
			wantMsg: `tree: duplicate: edge "a"-"b"`,
		},
		{
			name: "reversed duplicate edge", // undirected: b-a duplicates a-b
			build: func() *Builder {
				var b Builder
				b.AddEdge("a", "b")
				b.AddEdge("b", "c")
				b.AddEdge("b", "a")
				return &b
			},
			wantErr: ErrDuplicate,
			wantMsg: `tree: duplicate: edge "b"-"a"`,
		},
		{
			name: "self-loop under edge count", // |E| < |V|-1, was ErrNotConnected
			build: func() *Builder {
				var b Builder
				b.AddEdge("a", "a")
				b.AddVertex("b")
				b.AddVertex("c")
				return &b
			},
			wantErr: ErrDuplicate,
			wantMsg: `tree: duplicate: self-loop or duplicate vertex "a"`,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.build().Build()
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Build() error = %v, want %v", err, tc.wantErr)
			}
			if err.Error() != tc.wantMsg {
				t.Fatalf("Build() error message = %q, want %q", err.Error(), tc.wantMsg)
			}
		})
	}
}

func TestValidateEdges(t *testing.T) {
	tests := []struct {
		name  string
		edges [][2]string
		ok    bool
	}{
		{"empty", nil, true},
		{"distinct", [][2]string{{"a", "b"}, {"b", "c"}}, true},
		{"self-loop", [][2]string{{"x", "x"}}, false},
		{"duplicate", [][2]string{{"a", "b"}, {"a", "b"}}, false},
		{"reversed duplicate", [][2]string{{"a", "b"}, {"b", "a"}}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateEdges(tc.edges)
			if tc.ok && err != nil {
				t.Fatalf("ValidateEdges(%v) = %v, want nil", tc.edges, err)
			}
			if !tc.ok && !errors.Is(err, ErrDuplicate) {
				t.Fatalf("ValidateEdges(%v) = %v, want ErrDuplicate", tc.edges, err)
			}
		})
	}
}

func TestSingleVertexTree(t *testing.T) {
	var b Builder
	b.AddVertex("only")
	tr, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if d, _, _ := tr.Diameter(); d != 0 {
		t.Errorf("diameter = %d, want 0", d)
	}
	if got := tr.Path(0, 0); len(got) != 1 || got[0] != 0 {
		t.Errorf("Path(0,0) = %v, want [0]", got)
	}
}

func TestVertexByLabel(t *testing.T) {
	tr := Figure3Tree()
	if _, err := tr.VertexByLabel("nope"); !errors.Is(err, ErrUnknownVertex) {
		t.Errorf("VertexByLabel(nope) error = %v, want ErrUnknownVertex", err)
	}
	v, err := tr.VertexByLabel("v5")
	if err != nil || tr.Label(v) != "v5" {
		t.Errorf("VertexByLabel(v5) = %v, %v", v, err)
	}
}

func TestDistAndPath(t *testing.T) {
	tr := Figure3Tree()
	tests := []struct {
		u, v string
		d    int
		path []string
	}{
		{"v1", "v1", 0, []string{"v1"}},
		{"v1", "v2", 1, []string{"v1", "v2"}},
		{"v6", "v8", 4, []string{"v6", "v3", "v2", "v4", "v8"}},
		{"v5", "v7", 3, []string{"v5", "v2", "v3", "v7"}},
		{"v8", "v1", 3, []string{"v8", "v4", "v2", "v1"}},
	}
	for _, tc := range tests {
		u, v := tr.MustVertex(tc.u), tr.MustVertex(tc.v)
		if got := tr.Dist(u, v); got != tc.d {
			t.Errorf("Dist(%s,%s) = %d, want %d", tc.u, tc.v, got, tc.d)
		}
		got := tr.Path(u, v)
		if len(got) != len(tc.path) {
			t.Fatalf("Path(%s,%s) = %v, want %v", tc.u, tc.v, tr.Labels(got), tc.path)
		}
		for i := range got {
			if tr.Label(got[i]) != tc.path[i] {
				t.Errorf("Path(%s,%s)[%d] = %s, want %s", tc.u, tc.v, i, tr.Label(got[i]), tc.path[i])
			}
		}
		if err := tr.ValidatePath(got); err != nil {
			t.Errorf("ValidatePath(%v): %v", tr.Labels(got), err)
		}
	}
}

func TestDiameter(t *testing.T) {
	tests := []struct {
		name string
		tr   *Tree
		want int
	}{
		{"figure3", Figure3Tree(), 4},
		{"path10", NewPath(10), 9},
		{"star9", NewStar(9), 2},
		{"spider", NewSpider(3, 4), 8},
		{"binary depth3", NewCompleteKAry(2, 3), 6},
		{"single", NewPath(1), 0},
		{"edge", NewPath(2), 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			d, a, b := tc.tr.Diameter()
			if d != tc.want {
				t.Fatalf("diameter = %d, want %d", d, tc.want)
			}
			if got := tc.tr.Dist(a, b); got != d {
				t.Errorf("Dist(endpoints) = %d, want %d", got, d)
			}
		})
	}
}

func TestDiameterMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		tr := RandomPruefer(2+rng.Intn(30), rng)
		want := 0
		for u := 0; u < tr.NumVertices(); u++ {
			for _, d := range tr.DistancesFrom(VertexID(u)) {
				if d > want {
					want = d
				}
			}
		}
		if got, _, _ := tr.Diameter(); got != want {
			t.Fatalf("trial %d: diameter = %d, want %d\n%s", trial, got, want, tr)
		}
	}
}

func TestCenterMinimizesEccentricity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		tr := RandomPruefer(2+rng.Intn(25), rng)
		c := tr.Center()
		got := tr.Eccentricity(c)
		for v := 0; v < tr.NumVertices(); v++ {
			if e := tr.Eccentricity(VertexID(v)); e < got {
				t.Fatalf("trial %d: center ecc %d > vertex %s ecc %d", trial, got, tr.Label(VertexID(v)), e)
			}
		}
	}
}

func TestAdjacent(t *testing.T) {
	tr := Figure3Tree()
	if !tr.Adjacent(tr.MustVertex("v2"), tr.MustVertex("v5")) {
		t.Error("v2-v5 should be adjacent")
	}
	if tr.Adjacent(tr.MustVertex("v1"), tr.MustVertex("v5")) {
		t.Error("v1-v5 should not be adjacent")
	}
}

func TestValidatePathErrors(t *testing.T) {
	tr := Figure3Tree()
	if err := tr.ValidatePath(nil); err == nil {
		t.Error("empty path should fail")
	}
	v1, v5 := tr.MustVertex("v1"), tr.MustVertex("v5")
	if err := tr.ValidatePath([]VertexID{v1, v5}); err == nil {
		t.Error("non-adjacent pair should fail")
	}
	v2 := tr.MustVertex("v2")
	if err := tr.ValidatePath([]VertexID{v1, v2, v1}); err == nil {
		t.Error("repeated vertex should fail")
	}
	if err := tr.ValidatePath([]VertexID{VertexID(99)}); err == nil {
		t.Error("unknown vertex should fail")
	}
}

func TestIsPath(t *testing.T) {
	if !NewPath(7).IsPath() {
		t.Error("NewPath(7).IsPath() = false")
	}
	if Figure3Tree().IsPath() {
		t.Error("Figure3Tree().IsPath() = true")
	}
}

// TestFigure2Projection reproduces the paper's Figure 2: an 8-vertex path
// v1..v8 with hanging subtrees; inputs u1, u2, u3 project to v3, v4, v6.
func TestFigure2Projection(t *testing.T) {
	var b Builder
	for _, e := range [][2]string{
		{"v1", "v2"}, {"v2", "v3"}, {"v3", "v4"}, {"v4", "v5"},
		{"v5", "v6"}, {"v6", "v7"}, {"v7", "v8"},
		// hanging inputs: u1 below v3 (distance 2), u2 below v4, u3 below v6
		{"v3", "w1"}, {"w1", "u1"},
		{"v4", "u2"},
		{"v6", "w2"}, {"w2", "u3"},
	} {
		b.AddEdge(e[0], e[1])
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var path []VertexID
	for i := 1; i <= 8; i++ {
		path = append(path, tr.MustVertex(fmt.Sprintf("v%d", i)))
	}
	tests := []struct{ in, want string }{
		{"u1", "v3"}, {"u2", "v4"}, {"u3", "v6"},
		{"v5", "v5"}, // on-path vertex projects to itself
		{"w1", "v3"},
	}
	for _, tc := range tests {
		idx, proj := tr.ProjectOntoPath(path, tr.MustVertex(tc.in))
		if tr.Label(proj) != tc.want {
			t.Errorf("proj(%s) = %s, want %s", tc.in, tr.Label(proj), tc.want)
		}
		if path[idx] != proj {
			t.Errorf("proj(%s) index %d inconsistent", tc.in, idx)
		}
	}
	all := tr.ProjectAllOntoPath(path)
	for _, tc := range tests {
		v := tr.MustVertex(tc.in)
		if tr.Label(path[all[v]]) != tc.want {
			t.Errorf("ProjectAll: proj(%s) = %s, want %s", tc.in, tr.Label(path[all[v]]), tc.want)
		}
	}
}

func TestProjectionMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		tr := RandomPruefer(2+rng.Intn(40), rng)
		_, a, b := tr.Diameter()
		path := tr.Path(a, b)
		all := tr.ProjectAllOntoPath(path)
		for v := 0; v < tr.NumVertices(); v++ {
			// Brute force: nearest path vertex by distance.
			bestIdx, bestD := -1, 1<<30
			dist := tr.DistancesFrom(VertexID(v))
			for i, u := range path {
				if dist[u] < bestD {
					bestD, bestIdx = dist[u], i
				}
			}
			if all[v] != bestIdx {
				t.Fatalf("trial %d: proj(%s) index = %d, want %d", trial, tr.Label(VertexID(v)), all[v], bestIdx)
			}
			idx, _ := tr.ProjectOntoPath(path, VertexID(v))
			if idx != bestIdx {
				t.Fatalf("trial %d: ProjectOntoPath(%s) = %d, want %d", trial, tr.Label(VertexID(v)), idx, bestIdx)
			}
		}
	}
}

func TestEdges(t *testing.T) {
	tr := Figure3Tree()
	edges := tr.Edges()
	if len(edges) != 7 {
		t.Fatalf("len(Edges) = %d, want 7", len(edges))
	}
	for _, e := range edges {
		if e[0] >= e[1] {
			t.Errorf("edge %v not normalized", e)
		}
		if !tr.Adjacent(e[0], e[1]) {
			t.Errorf("edge %v not adjacent", e)
		}
	}
}

func TestBadLabelsRejected(t *testing.T) {
	for _, label := range []string{"", "#lead", "has space", "has-dash", "tab\there", "new\nline"} {
		var b Builder
		b.AddVertex(label)
		if _, err := b.Build(); !errors.Is(err, ErrBadLabel) {
			t.Errorf("label %q: err = %v, want ErrBadLabel", label, err)
		}
	}
	// Unicode labels without separators are fine.
	var b Builder
	b.AddEdge("αlpha", "βeta")
	if _, err := b.Build(); err != nil {
		t.Errorf("unicode labels rejected: %v", err)
	}
}
