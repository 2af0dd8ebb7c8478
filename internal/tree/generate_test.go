package tree

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGeneratorShapes(t *testing.T) {
	tests := []struct {
		name     string
		tr       *Tree
		vertices int
		diameter int
	}{
		{"path1", NewPath(1), 1, 0},
		{"path2", NewPath(2), 2, 1},
		{"path100", NewPath(100), 100, 99},
		{"star1", NewStar(1), 1, 0},
		{"star2", NewStar(2), 2, 1},
		{"star50", NewStar(50), 50, 2},
		{"spider 4x3", NewSpider(4, 3), 13, 6},
		{"spider 1x5", NewSpider(1, 5), 6, 5},
		{"caterpillar 5x2", NewCaterpillar(5, 2), 15, 6},
		{"binary depth0", NewCompleteKAry(2, 0), 1, 0},
		{"binary depth4", NewCompleteKAry(2, 4), 31, 8},
		{"ternary depth2", NewCompleteKAry(3, 2), 13, 4},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.tr.NumVertices(); got != tc.vertices {
				t.Errorf("vertices = %d, want %d", got, tc.vertices)
			}
			if got, _, _ := tc.tr.Diameter(); got != tc.diameter {
				t.Errorf("diameter = %d, want %d", got, tc.diameter)
			}
		})
	}
}

func TestCaterpillarDegrees(t *testing.T) {
	tr := NewCaterpillar(4, 3)
	// Interior spine vertices: 2 spine neighbors + 3 legs = 5.
	deg5 := 0
	for v := 0; v < tr.NumVertices(); v++ {
		if tr.Degree(VertexID(v)) == 5 {
			deg5++
		}
	}
	if deg5 != 2 {
		t.Errorf("interior spine vertices = %d, want 2", deg5)
	}
}

func TestNewRandomDeterministic(t *testing.T) {
	a := NewRandom(40, rand.New(rand.NewSource(3)))
	b := NewRandom(40, rand.New(rand.NewSource(3)))
	if !a.Equal(b) {
		t.Error("same seed should generate identical trees")
	}
	c := NewRandom(40, rand.New(rand.NewSource(4)))
	if a.Equal(c) {
		t.Error("different seeds should (almost surely) differ")
	}
}

func TestFromPrueferKnown(t *testing.T) {
	// Sequence (4,4,4,5) on n=6: star-ish tree where 4 has degree 4.
	tr, err := FromPruefer([]int{4, 4, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumVertices() != 6 {
		t.Fatalf("vertices = %d, want 6", tr.NumVertices())
	}
	if got := tr.Degree(tr.MustVertex("v4")); got != 4 {
		t.Errorf("degree(v4) = %d, want 4", got)
	}
}

func TestFromPrueferRange(t *testing.T) {
	if _, err := FromPruefer([]int{0}); err == nil {
		t.Error("entry 0 should fail")
	}
	if _, err := FromPruefer([]int{4}); err == nil {
		t.Error("entry beyond n should fail")
	}
}

// TestPrueferRoundTrip is the core property test: decode∘encode = id for
// random sequences, via testing/quick.
func TestPrueferRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	f := func(rawLen uint8) bool {
		n := 3 + int(rawLen)%60
		seq := make([]int, n-2)
		for i := range seq {
			seq[i] = rng.Intn(n) + 1
		}
		tr, err := FromPruefer(seq)
		if err != nil {
			return false
		}
		got := tr.Pruefer()
		if len(got) != len(seq) {
			return false
		}
		for i := range got {
			if got[i] != seq[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPrueferSmall(t *testing.T) {
	if got := NewPath(2).Pruefer(); len(got) != 0 {
		t.Errorf("Pruefer of 2-vertex tree = %v, want empty", got)
	}
	if got := NewPath(1).Pruefer(); len(got) != 0 {
		t.Errorf("Pruefer of 1-vertex tree = %v, want empty", got)
	}
}

func TestRandomPrueferValid(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(50)
		tr := RandomPruefer(n, rng)
		if tr.NumVertices() != n {
			t.Fatalf("trial %d: vertices = %d, want %d", trial, tr.NumVertices(), n)
		}
	}
}

// namedTree is one input of the generator tables below.
type namedTree struct {
	name string
	tr   *Tree
}

// generatedTrees is one tree from every generator, at sizes where the label
// width changes inside the tree (v1..v9, then v01..).
func generatedTrees() []namedTree {
	rng := rand.New(rand.NewSource(5))
	pruefer, err := FromPruefer([]int{4, 4, 4, 5})
	if err != nil {
		panic(err)
	}
	return []namedTree{
		{"path1", NewPath(1)},
		{"path2", NewPath(2)},
		{"path1000", NewPath(1000)},
		{"star11", NewStar(11)},
		{"spider3x3", NewSpider(3, 3)},
		{"spider4x30", NewSpider(4, 30)},
		{"caterpillar5x2", NewCaterpillar(5, 2)},
		{"ternary depth4", NewCompleteKAry(3, 4)},
		{"unary depth12", NewCompleteKAry(1, 12)},
		{"random300", NewRandom(300, rng)},
		{"pruefer6", pruefer},
		{"randompruefer1", RandomPruefer(1, rng)},
		{"randompruefer1234", RandomPruefer(1234, rng)},
	}
}

// TestGeneratedLabels holds the labels generators cut from one string to
// fmt's zero-padded form, and FromPruefer to the inverse of Pruefer on
// every generated tree.
func TestGeneratedLabels(t *testing.T) {
	for _, tc := range generatedTrees() {
		n := tc.tr.NumVertices()
		for v := 0; v < n; v++ {
			if got, want := tc.tr.Label(VertexID(v)), fmt.Sprintf("v%0*d", len(fmt.Sprint(n)), v+1); got != want {
				t.Fatalf("%s: Label(%d) = %q, want %q", tc.name, v, got, want)
			}
		}
		if n < 2 {
			continue
		}
		back, err := FromPruefer(tc.tr.Pruefer())
		if err != nil || !back.Equal(tc.tr) {
			t.Errorf("%s: FromPruefer(Pruefer()) = %v, %v", tc.name, back, err)
		}
	}
}

// TestGeneratorsAllocateNothingPerVertex pins a generated tree, and the
// first query that compiles it, to a fixed number of allocations: labels
// are cut from one string and the neighbor lists from one slab. The
// label-keyed builder this replaced spent about nine per vertex (18,000
// for NewPath(2048)). The compiled tables add a fixed set of arrays plus
// one sparse-table row per level, log |V| of them.
func TestGeneratorsAllocateNothingPerVertex(t *testing.T) {
	const maxBuild, maxCompiled = 16, 48
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name  string
		build func() *Tree
	}{
		{"NewPath(2048)", func() *Tree { return NewPath(2048) }},
		{"RandomPruefer(4096)", func() *Tree { return RandomPruefer(4096, rng) }},
		{"NewSpider(3,3)", func() *Tree { return NewSpider(3, 3) }},
	} {
		if got := testing.AllocsPerRun(5, func() { c.build() }); got > maxBuild {
			t.Errorf("%s: %.0f allocations, want <= %d", c.name, got, maxBuild)
		}
	}
	if got := testing.AllocsPerRun(5, func() { NewPath(2048).compiled() }); got > maxCompiled {
		t.Errorf("NewPath(2048) built and compiled: %.0f allocations, want <= %d", got, maxCompiled)
	}
}

func TestLabelOrderIsNumeric(t *testing.T) {
	tr := NewPath(120)
	// Zero-padding must make label order == numeric order, so vertex 0 is v001.
	if got := tr.Label(0); got != "v001" {
		t.Errorf("Label(0) = %q, want v001", got)
	}
	if got := tr.Label(119); got != "v120" {
		t.Errorf("Label(119) = %q, want v120", got)
	}
	// Path structure: vertex i adjacent to i+1.
	for i := 0; i+1 < 120; i++ {
		if !tr.Adjacent(VertexID(i), VertexID(i+1)) {
			t.Fatalf("path vertices %d,%d not adjacent", i, i+1)
		}
	}
}

// TestSubtreeCenterProperties: the center of a convex set lies inside the
// set and minimizes the maximum distance (within the set) to its members.
func TestSubtreeCenterProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		tr := RandomPruefer(2+rng.Intn(30), rng)
		// A random convex set: the hull of a few random vertices.
		k := 1 + rng.Intn(4)
		seeds := make([]VertexID, k)
		for i := range seeds {
			seeds[i] = VertexID(rng.Intn(tr.NumVertices()))
		}
		s := tr.ConvexHull(seeds)
		c := SubtreeCenter(tr, s)
		inS := false
		for _, v := range s {
			if v == c {
				inS = true
				break
			}
		}
		if !inS {
			t.Fatalf("trial %d: center %s outside its set %v", trial, tr.Label(c), tr.Labels(s))
		}
		// Center eccentricity within the set must be minimal.
		ecc := func(u VertexID) int {
			worst := 0
			for _, v := range s {
				if d := tr.Dist(u, v); d > worst {
					worst = d
				}
			}
			return worst
		}
		cEcc := ecc(c)
		for _, v := range s {
			if e := ecc(v); e < cEcc {
				t.Fatalf("trial %d: center ecc %d > vertex %s ecc %d", trial, cEcc, tr.Label(v), e)
			}
		}
	}
}
