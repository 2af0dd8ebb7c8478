package treeaa

import (
	"math/rand"
	"testing"
)

func TestFacadeRun(t *testing.T) {
	tr := NewPathTree(30)
	inputs := []VertexID{0, 29, 15, 7}
	res, err := Run(tr, 4, 1, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 4 {
		t.Fatalf("outputs = %d, want 4", len(res.Outputs))
	}
	for i, a := range res.Outputs {
		for j, b := range res.Outputs {
			if i != j && tr.Dist(a, b) > 1 {
				t.Errorf("outputs %s and %s too far apart", tr.Label(a), tr.Label(b))
			}
		}
	}
}

func TestFacadeBaseline(t *testing.T) {
	tr := NewSpiderTree(3, 5)
	inputs := []VertexID{0, 5, 10, 15}
	outputs, err := RunBaseline(tr, 4, 1, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outputs) != 4 {
		t.Fatalf("outputs = %d, want 4", len(outputs))
	}
}

func TestFacadeParse(t *testing.T) {
	tr, err := ParseTreeString("a - b\nb - c\n")
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumVertices() != 3 {
		t.Errorf("vertices = %d", tr.NumVertices())
	}
	if _, err := ParseTreeString("a - b\nc - d\n"); err == nil {
		t.Error("disconnected input should fail")
	}
}

func TestFacadeGeneratorsAndBounds(t *testing.T) {
	if NewStarTree(10).NumVertices() != 10 {
		t.Error("star size")
	}
	if NewRandomTree(25, rand.New(rand.NewSource(1))).NumVertices() != 25 {
		t.Error("random size")
	}
	tr := NewPathTree(1000)
	ub := Rounds(tr, 3)
	lb := LowerBoundRounds(999, 10, 3)
	if lb <= 0 || ub <= 0 {
		t.Fatalf("bounds: lb=%d ub=%d", lb, ub)
	}
	if ub < lb {
		t.Errorf("protocol budget %d below the lower bound %d", ub, lb)
	}
	// The collapsed t <= 1 schedule must respect the lower bound too.
	if ub, lb := Rounds(tr, 1), LowerBoundRounds(999, 4, 1); ub != 6 || ub < lb {
		t.Errorf("t=1: protocol budget %d (want 6), lower bound %d", ub, lb)
	}
}

func TestFacadeBuilder(t *testing.T) {
	var b Builder
	b.AddEdge("root", "left")
	b.AddEdge("root", "right")
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	inputs := []VertexID{tr.MustVertex("left"), tr.MustVertex("right"), tr.MustVertex("root"), tr.MustVertex("root")}
	res, err := Run(tr, 4, 1, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 4 {
		t.Errorf("outputs = %d", len(res.Outputs))
	}
}

func TestFacadeExact(t *testing.T) {
	tr := NewPathTree(15)
	inputs := []VertexID{0, 14, 7, 3, 10}
	outputs, err := RunExact(tr, 5, 2, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var first VertexID = -1
	for _, v := range outputs {
		if first == -1 {
			first = v
		}
		if v != first {
			t.Errorf("exact agreement violated: %v vs %v", v, first)
		}
	}
	if ExactRounds(2) != 4 {
		t.Errorf("ExactRounds(2) = %d, want 4", ExactRounds(2))
	}
}
