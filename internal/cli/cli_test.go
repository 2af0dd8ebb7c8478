package cli

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"treeaa/internal/graph"
	"treeaa/internal/tree"
)

// reference is every row's constructor called directly, by row name: the
// space ParseSpaceSpec must build for the row's arguments and seed.
var reference = map[string]func(a []int, seed int64) *Space{
	"path":        func(a []int, _ int64) *Space { return &Space{Tree: tree.NewPath(a[0])} },
	"star":        func(a []int, _ int64) *Space { return &Space{Tree: tree.NewStar(a[0])} },
	"spider":      func(a []int, _ int64) *Space { return &Space{Tree: tree.NewSpider(a[0], a[1])} },
	"caterpillar": func(a []int, _ int64) *Space { return &Space{Tree: tree.NewCaterpillar(a[0], a[1])} },
	"kary":        func(a []int, _ int64) *Space { return &Space{Tree: tree.NewCompleteKAry(a[0], a[1])} },
	"random": func(a []int, seed int64) *Space {
		return &Space{Tree: tree.RandomPruefer(a[0], rand.New(rand.NewSource(seed)))}
	},
	"figure3":           func([]int, int64) *Space { return &Space{Tree: tree.Figure3Tree()} },
	"graph:cycle":       func(a []int, _ int64) *Space { return &Space{Graph: graph.NewCycle(a[0])} },
	"graph:clique":      func(a []int, _ int64) *Space { return &Space{Graph: graph.NewClique(a[0])} },
	"graph:cliquechain": func(a []int, _ int64) *Space { return &Space{Graph: graph.NewCliqueChain(a[0], a[1])} },
	"graph:cactus":      func(a []int, _ int64) *Space { return &Space{Graph: graph.NewCactusChain(a[0], a[1])} },
	"graph:randomblock": func(a []int, seed int64) *Space {
		return &Space{Graph: graph.NewRandomBlock(a[0], rand.New(rand.NewSource(seed)))}
	},
}

// specOf renders a shape row with arguments a as its spec string.
func specOf(row *shape, a []int) string {
	spec := row.name
	for _, v := range a {
		spec += ":" + strconv.Itoa(v)
	}
	return spec
}

// sameSpace reports whether two spaces are the same tree, or the same graph:
// equal labels and edges, and so equal vertex ids.
func sameSpace(a, b *Space) bool {
	if a.IsGraph() != b.IsGraph() {
		return false
	}
	if !a.IsGraph() {
		return a.Tree.Equal(b.Tree)
	}
	ga, gb := a.Graph, b.Graph
	if ga.NumVertices() != gb.NumVertices() || !reflect.DeepEqual(ga.Edges(), gb.Edges()) {
		return false
	}
	for v := tree.VertexID(0); int(v) < ga.NumVertices(); v++ {
		if ga.Label(v) != gb.Label(v) {
			return false
		}
	}
	return true
}

// TestParseTreeSpec pins the size and diameter of each tree shape a spec
// names, which TestSpaceSpecTable does not: it compares the parser with the
// constructors, not the constructors with the shapes.
func TestParseTreeSpec(t *testing.T) {
	tests := []struct {
		spec     string
		vertices int
		diameter int
	}{
		{"path:10", 10, 9},
		{"star:8", 8, 2},
		{"spider:3:4", 13, 8},
		{"caterpillar:4:2", 12, 5},
		{"kary:2:3", 15, 6},
		{"random:20", 20, -1}, // diameter varies
		{"figure3", 8, 4},
	}
	for _, tc := range tests {
		t.Run(tc.spec, func(t *testing.T) {
			sp, err := ParseSpaceSpec(tc.spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			tr := sp.Tree
			if tr.NumVertices() != tc.vertices {
				t.Errorf("vertices = %d, want %d", tr.NumVertices(), tc.vertices)
			}
			if tc.diameter >= 0 {
				if d, _, _ := tr.Diameter(); d != tc.diameter {
					t.Errorf("diameter = %d, want %d", d, tc.diameter)
				}
			}
		})
	}
}

// TestSpaceSpecTable walks every row of the space language: at its minimum
// arguments, with each argument one below its minimum, and over a range of
// arguments, where the parsed space must equal the row's constructor called
// directly.
func TestSpaceSpecTable(t *testing.T) {
	for i := range shapes {
		row := &shapes[i]
		if row.file {
			continue
		}
		ref := reference[row.name]
		if ref == nil {
			t.Fatalf("row %s has no reference constructor", row.name)
		}
		mins := make([]int, len(row.args))
		for k, a := range row.args {
			mins[k] = a.min
		}
		for k := range row.args {
			below := append([]int(nil), mins...)
			below[k]--
			if _, err := ParseSpaceSpec(specOf(row, below), 1); err == nil {
				t.Errorf("%s accepted, %s below its minimum", specOf(row, below), row.args[k].name)
			}
		}
		// Every argument from its minimum to three above it, every seed 1-2.
		a := append([]int(nil), mins...)
		for {
			for seed := int64(1); seed <= 2; seed++ {
				spec := specOf(row, a)
				sp, err := ParseSpaceSpec(spec, seed)
				if err != nil {
					t.Fatalf("%s: %v", spec, err)
				}
				if want := ref(a, seed); sp.Spec != spec || !sameSpace(sp, want) || ReadsFile(spec) {
					t.Fatalf("%s (seed %d) parsed to a space unlike its constructor's", spec, seed)
				}
			}
			k := 0
			for ; k < len(a) && a[k] == mins[k]+3; k++ {
				a[k] = mins[k]
			}
			if k == len(a) {
				break
			}
			a[k]++
		}
	}
	for name := range reference {
		if _, _, err := lookupShape(name); err != nil {
			t.Errorf("reference %s has no row: %v", name, err)
		}
	}
}

// TestParseTreeSpecErrors: specs that no tree row reads are refused. The
// graph rows' refusals are pinned by TestParseSpecErrors in internal/graph.
func TestParseTreeSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"", "bogus", "graph", "path", "path:x", "path:0", "path:-1", "path: 8", "spider:3", "kary:2",
		"@/nonexistent/file",
		// arguments a shape cannot use
		"path:8:9", "star:4:", "figure3:5", "figure3:", "path:",
		// a second string for one spec
		"path:08", "path:+8",
	} {
		if sp, err := ParseSpaceSpec(spec, 1); err == nil {
			t.Errorf("%q accepted as %+v", spec, sp)
		}
	}
}

// TestParseTreeSpecDeterministicRandom: a random tree is a function of its
// seed: the same seed builds an equal tree, the next seed a different one.
// TestParseSpecSeedDeterminism in internal/graph does the same for
// graph:randomblock:K.
func TestParseTreeSpecDeterministicRandom(t *testing.T) {
	const spec = "random:30"
	parse := func(seed int64) *Space {
		sp, err := ParseSpaceSpec(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	if a, b, c := parse(42), parse(42), parse(43); !sameSpace(a, b) || sameSpace(a, c) {
		t.Errorf("%s: seed 42 twice equal %v, seeds 42 and 43 equal %v", spec, sameSpace(a, b), sameSpace(a, c))
	}
}

// TestSpaceSpecFile: the two file rows read an edge list as a tree and as a
// graph, ReadsFile names exactly them, and a missing file is an error.
func TestSpaceSpecFile(t *testing.T) {
	const edges = "# a path\na - b\nb - c\n"
	path := filepath.Join(t.TempDir(), "tree.txt")
	if err := os.WriteFile(path, []byte(edges), 0o644); err != nil {
		t.Fatal(err)
	}
	wantTree, err := tree.ParseString(edges)
	if err != nil {
		t.Fatal(err)
	}
	wantGraph, err := graph.Parse(strings.NewReader(edges))
	if err != nil {
		t.Fatal(err)
	}
	for spec, want := range map[string]*Space{"@" + path: {Tree: wantTree}, GraphPrefix + "@" + path: {Graph: wantGraph}} {
		sp, err := ParseSpaceSpec(spec, 1)
		if err != nil || !sameSpace(sp, want) || !ReadsFile(spec) {
			t.Errorf("%s: %+v, %v, ReadsFile %v", spec, sp, err, ReadsFile(spec))
		}
		if _, err := ParseSpaceSpec(spec+".missing", 1); err == nil {
			t.Errorf("%s.missing accepted", spec)
		}
	}
	for _, spec := range []string{"path:3", "graph:cycle:3", "figure3", "nope", "", "graph:"} {
		if ReadsFile(spec) {
			t.Errorf("ReadsFile(%q) = true", spec)
		}
	}
}

// TestSpaceShapes: the grammar every help string and the package doc of
// cmd/treeaa name, one entry per row in table order.
func TestSpaceShapes(t *testing.T) {
	want := "path:K star:K spider:LEGS:LEN caterpillar:SPINE:LEGS kary:K:DEPTH random:K figure3 @FILE " +
		"graph:cycle:K graph:clique:K graph:cliquechain:B:S graph:cactus:B:L graph:randomblock:K graph:@FILE"
	if got := strings.Join(SpaceShapes(), " "); got != want {
		t.Errorf("SpaceShapes = %s, want %s", got, want)
	}
}

func TestSpreadInputs(t *testing.T) {
	sp, err := ParseSpaceSpec("path:10", 1)
	if err != nil {
		t.Fatal(err)
	}
	in := sp.SpreadInputs(4)
	if len(in) != 4 || in[0] != 0 || in[3] != 9 {
		t.Errorf("SpreadInputs = %v", in)
	}
	// Single party: no division by zero.
	if in := sp.SpreadInputs(1); len(in) != 1 || in[0] != 0 {
		t.Errorf("SpreadInputs(1) = %v", in)
	}
}
