package cli

import (
	"reflect"
	"strings"
	"testing"

	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

func TestParseSpaceSpec(t *testing.T) {
	sp, err := ParseSpaceSpec("path:8", 1)
	if err != nil {
		t.Fatal(err)
	}
	if sp.IsGraph() || sp.Tree == nil || sp.NumVertices() != 8 {
		t.Fatalf("tree space = %+v", sp)
	}
	if sp.ProtocolTree() != sp.Tree {
		t.Fatal("tree space protocol tree is not the tree itself")
	}

	gp, err := ParseSpaceSpec("graph:cliquechain:3:3", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !gp.IsGraph() || gp.NumVertices() != 7 {
		t.Fatalf("graph space = %+v", gp)
	}
	// 3 blocks + 2 cut vertices.
	if got := gp.ProtocolTree().NumVertices(); got != 5 {
		t.Fatalf("block-cut tree has %d nodes, want 5", got)
	}
	if _, err := ParseSpaceSpec("graph:nope:3", 1); err == nil {
		t.Fatal("bad graph spec accepted")
	}
	if _, err := ParseSpaceSpec("nope:3", 1); err == nil {
		t.Fatal("bad tree spec accepted")
	}
	// The prefix alone picks the kind: the same family name is a tree
	// without it only if the tree parser knows it.
	if sp, err := ParseSpaceSpec("star:5", 1); err != nil || sp.IsGraph() {
		t.Fatalf("star:5 = %+v, %v; want a tree", sp, err)
	}
	if gp, err := ParseSpaceSpec("graph:cycle:6", 1); err != nil || !gp.IsGraph() {
		t.Fatalf("graph:cycle:6 = %+v, %v; want a graph", gp, err)
	}
	if _, err := ParseSpaceSpec("cycle:6", 1); err == nil {
		t.Fatal("graph family without the graph: prefix accepted as a tree")
	}
}

// The tree helpers the Space dispatchers replaced, kept as the reference
// TestSpaceInputsMatchTreeHelpers proves them against.

// spreadInputs places n inputs roughly evenly across the vertex ID range.
func spreadInputs(tr *tree.Tree, n int) []tree.VertexID {
	inputs := make([]tree.VertexID, n)
	denom := n - 1
	if denom < 1 {
		denom = 1
	}
	for i := range inputs {
		inputs[i] = tree.VertexID(i * (tr.NumVertices() - 1) / denom)
	}
	return inputs
}

// rotateInputs renders the spread input placement rotated by shift vertex
// positions, as a comma-separated label list.
func rotateInputs(tr *tree.Tree, n, shift int) string {
	labels := make([]string, n)
	denom := n - 1
	if denom < 1 {
		denom = 1
	}
	v := tr.NumVertices()
	for i := range labels {
		labels[i] = tr.Label(tree.VertexID((i*(v-1)/denom + shift) % v))
	}
	return strings.Join(labels, ",")
}

func TestSpaceInputsMatchTreeHelpers(t *testing.T) {
	sp, err := ParseSpaceSpec("caterpillar:4:2", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 4, 7} {
		if got, want := sp.SpreadInputs(n), spreadInputs(sp.Tree, n); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: SpreadInputs %v vs tree helper %v", n, got, want)
		}
		if got, want := sp.RotateInputs(n, 3), rotateInputs(sp.Tree, n, 3); got != want {
			t.Fatalf("n=%d: RotateInputs %q vs tree helper %q", n, got, want)
		}
	}
	in, err := sp.ParseInputs("", 5)
	if err != nil || len(in) != 5 {
		t.Fatalf("ParseInputs spread: %v, %v", in, err)
	}
}

func TestSpaceGraphSemantics(t *testing.T) {
	gp, err := ParseSpaceSpec("graph:cycle:4", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Antipodal hull on C4 is the whole cycle (graph semantics, not tree).
	if got := gp.ConvexHull([]tree.VertexID{0, 2}); len(got) != 4 {
		t.Fatalf("C4 hull = %v", got)
	}
	if gp.AgreementOK(0, 2) != true { // same (only) block
		t.Fatal("cycle block pair rejected")
	}
	bp, err := ParseSpaceSpec("graph:cliquechain:3:3", 1)
	if err != nil {
		t.Fatal(err)
	}
	if bp.AgreementOK(0, 6) {
		t.Fatal("chain endpoints accepted as agreeing")
	}
	// Round trip labels.
	v, err := bp.VertexByLabel(bp.Label(3))
	if err != nil || v != 3 {
		t.Fatalf("label round trip: %v, %v", v, err)
	}
	// Machines: sim machine and core machine are distinct for graphs.
	m, cm, err := bp.NewMachine(4, 1, 0, 0)
	if err != nil || m == nil || cm == nil {
		t.Fatalf("graph NewMachine: %v", err)
	}
	if any(m) == any(cm) {
		t.Fatal("graph space returned the core machine as the sim machine")
	}
	tp, err := ParseSpaceSpec("path:4", 1)
	if err != nil {
		t.Fatal(err)
	}
	tm, tcm, err := tp.NewMachine(4, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if any(tm) != any(tcm) {
		t.Fatal("tree space sim machine is not the core machine")
	}
}

// TestSpaceJudge pins the one verdict every driver reports: hull validity
// over honest inputs, strict 1-agreement on trees and block graphs, the
// shared-block relaxation on cycle blocks, and corrupted or silent parties
// left out of both.
func TestSpaceJudge(t *testing.T) {
	path, err := ParseSpaceSpec("path:8", 1)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []tree.VertexID{2, 4, 7, 0}
	corrupt := map[sim.PartyID]bool{2: true, 3: true}
	// Honest hull is {2,3,4}; party 2's output and both corrupted inputs are
	// ignored, a party without an output is skipped.
	maxDist, validity, agreement := path.Judge(inputs, corrupt,
		map[sim.PartyID]tree.VertexID{0: 3, 2: 7})
	if maxDist != 0 || len(validity)+len(agreement) != 0 {
		t.Fatalf("clean run judged (%d, %v, %v)", maxDist, validity, agreement)
	}
	maxDist, validity, agreement = path.Judge(inputs, corrupt,
		map[sim.PartyID]tree.VertexID{0: 2, 1: 5})
	if maxDist != 3 || len(validity) != 1 || len(agreement) != 1 {
		t.Fatalf("output outside the hull at distance 3 judged (%d, %v, %v)", maxDist, validity, agreement)
	}

	// Block graph: the same block is distance 1; across two blocks is not.
	chain, err := ParseSpaceSpec("graph:cliquechain:3:3", 1)
	if err != nil {
		t.Fatal(err)
	}
	all := []tree.VertexID{0, 1, 6}
	if d, v, a := chain.Judge(all, nil, map[sim.PartyID]tree.VertexID{0: 0, 1: 1}); d != 1 || len(v)+len(a) != 0 {
		t.Fatalf("same-block outputs judged (%d, %v, %v)", d, v, a)
	}
	if _, _, a := chain.Judge(all, nil, map[sim.PartyID]tree.VertexID{0: 0, 1: 6}); len(a) != 1 {
		t.Fatalf("chain endpoints judged agreeing: %v", a)
	}

	// A cycle block relaxes agreement to the shared block, whatever the
	// distance inside it.
	cycle, err := ParseSpaceSpec("graph:cycle:6", 1)
	if err != nil {
		t.Fatal(err)
	}
	if d, v, a := cycle.Judge([]tree.VertexID{0, 3}, nil, map[sim.PartyID]tree.VertexID{0: 0, 1: 3}); d != 3 || len(v)+len(a) != 0 {
		t.Fatalf("antipodal outputs of one cycle block judged (%d, %v, %v)", d, v, a)
	}
}
