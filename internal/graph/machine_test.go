package graph_test

// End-to-end tests of the graph machine under the in-process drivers:
// validity on the geodesic hull of honest inputs, pairwise agreement
// (exact 1-agreement on block graphs, common-block on cycles), termination
// within the TreeAA round budget of the block-cut tree, determinism, and
// sequential/concurrent driver equivalence. Adversaries come from the
// shared cli catalogue built against the block-cut tree, so the graph
// machine faces exactly the attacks the tree machine does.

import (
	"fmt"
	"reflect"
	"testing"

	"treeaa/internal/cli"
	"treeaa/internal/graph"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// spreadGraphInputs mirrors cli.Space.SpreadInputs over a graph's vertex range.
func spreadGraphInputs(g *graph.Graph, n int) []tree.VertexID {
	inputs := make([]tree.VertexID, n)
	denom := n - 1
	if denom < 1 {
		denom = 1
	}
	for i := range inputs {
		inputs[i] = tree.VertexID(i * (g.NumVertices() - 1) / denom)
	}
	return inputs
}

func graphMachines(t *testing.T, g *graph.Graph, n, tt int, inputs []tree.VertexID) []sim.Machine {
	t.Helper()
	ms := make([]sim.Machine, n)
	for i := range ms {
		m, err := graph.NewMachine(graph.Config{Graph: g, N: n, T: tt, ID: sim.PartyID(i), Input: inputs[i]})
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	return ms
}

// checkGraphResult asserts the decode rule's guarantees over an execution.
func checkGraphResult(t *testing.T, g *graph.Graph, res *sim.Result, inputs []tree.VertexID, desc string) {
	t.Helper()
	var honestInputs []tree.VertexID
	for p := 0; p < len(inputs); p++ {
		if !res.Corrupted[sim.PartyID(p)] {
			honestInputs = append(honestInputs, inputs[p])
		}
	}
	outs := make(map[sim.PartyID]tree.VertexID)
	for p, raw := range res.Outputs {
		v, ok := raw.(tree.VertexID)
		if !ok {
			t.Fatalf("%s: party %d output %T", desc, p, raw)
		}
		if !g.Valid(v) {
			t.Fatalf("%s: party %d output invalid vertex %d", desc, p, int(v))
		}
		outs[p] = v
	}
	for p := 0; p < len(inputs); p++ {
		if !res.Corrupted[sim.PartyID(p)] {
			if _, ok := outs[sim.PartyID(p)]; !ok {
				t.Fatalf("%s: honest party %d has no output", desc, p)
			}
		}
	}
	// Validity: every honest output in the geodesic hull of honest inputs.
	for p, v := range outs {
		if !g.InHull(honestInputs, v) {
			t.Fatalf("%s: party %d output %s outside hull of honest inputs %v",
				desc, p, g.Label(v), g.Labels(honestInputs))
		}
	}
	// Agreement: <= 1 or common block for every pair; exact 1-agreement on
	// block graphs.
	for p, u := range outs {
		for q, v := range outs {
			if p >= q {
				continue
			}
			if !g.AgreementOK(u, v) {
				t.Fatalf("%s: parties %d/%d outputs %s/%s violate agreement",
					desc, p, q, g.Label(u), g.Label(v))
			}
			if g.IsBlockGraph() && g.Dist(u, v) > 1 {
				t.Fatalf("%s: block graph outputs %s/%s at distance %d",
					desc, g.Label(u), g.Label(v), g.Dist(u, v))
			}
		}
	}
}

func testSpecs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	specs := map[string]*graph.Graph{}
	for _, s := range []string{
		"clique:5", "cycle:4", "cycle:9", "cliquechain:3:4",
		"cliquechain:5:2", "cactus:3:4", "cactus:2:5", "randomblock:12",
	} {
		g, err := graph.ParseSpec(s, 11)
		if err != nil {
			t.Fatal(err)
		}
		specs[s] = g
	}
	return specs
}

func TestMachineHonest(t *testing.T) {
	for spec, g := range testSpecs(t) {
		for _, n := range []int{4, 7} {
			inputs := spreadGraphInputs(g, n)
			tt := (n - 1) / 3
			res, err := sim.Run(sim.Config{N: n, MaxCorrupt: 0, MaxRounds: graph.Rounds(g, tt) + 2},
				graphMachines(t, g, n, tt, inputs))
			if err != nil {
				t.Fatalf("%s n=%d: %v", spec, n, err)
			}
			checkGraphResult(t, g, res, inputs, fmt.Sprintf("%s n=%d", spec, n))
			if res.Rounds > graph.Rounds(g, tt)+1 {
				t.Fatalf("%s n=%d: %d rounds for budget %d", spec, n, res.Rounds, graph.Rounds(g, tt))
			}
		}
	}
}

func TestMachineByzantine(t *testing.T) {
	for spec, g := range testSpecs(t) {
		for _, advName := range cli.AdversaryNames() {
			for seed := int64(1); seed <= 3; seed++ {
				n, tt := 4, 1
				adv, _, err := (&cli.Space{Graph: g}).BuildAdversary(advName, n, tt, seed)
				if err != nil {
					t.Fatal(err)
				}
				inputs := spreadGraphInputs(g, n)
				desc := fmt.Sprintf("%s adversary=%s seed=%d", spec, advName, seed)
				res, err := sim.Run(
					sim.Config{N: n, MaxCorrupt: tt, Adversary: adv, MaxRounds: graph.Rounds(g, tt) + 2},
					graphMachines(t, g, n, tt, inputs))
				if err != nil {
					t.Fatalf("%s: %v", desc, err)
				}
				checkGraphResult(t, g, res, inputs, desc)
			}
		}
	}
}

// TestMachineDriverEquivalence pins byte-identical Results between the
// sequential and concurrent drivers on graph machines (fresh machines per
// driver; Machine is single-execution state).
func TestMachineDriverEquivalence(t *testing.T) {
	for spec, g := range testSpecs(t) {
		n, tt := 5, 1
		inputs := spreadGraphInputs(g, n)
		mk := func() []sim.Machine { return graphMachines(t, g, n, tt, inputs) }
		adv, _, err := (&cli.Space{Graph: g}).BuildAdversary("equivocator", n, tt, 7)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.Config{N: n, MaxCorrupt: tt, Adversary: adv, MaxRounds: graph.Rounds(g, tt) + 2}
		seq, err := sim.Run(cfg, mk())
		if err != nil {
			t.Fatalf("%s sequential: %v", spec, err)
		}
		adv2, _, err := (&cli.Space{Graph: g}).BuildAdversary("equivocator", n, tt, 7)
		if err != nil {
			t.Fatal(err)
		}
		cfg2 := cfg
		cfg2.Adversary = adv2
		conc, err := sim.RunConcurrent(cfg2, mk())
		if err != nil {
			t.Fatalf("%s concurrent: %v", spec, err)
		}
		if !reflect.DeepEqual(seq, conc) {
			t.Fatalf("%s: sequential and concurrent results differ:\n%+v\n%+v", spec, seq, conc)
		}
	}
}

// TestMachineSingleBlock pins the trivial mode: one block means a
// single-node block-cut tree, zero protocol rounds, and every party keeps
// its own input — exact for cliques (diameter 1), the relaxed per-block
// regime on cycles.
func TestMachineSingleBlock(t *testing.T) {
	g := graph.NewClique(6)
	n := 4
	inputs := spreadGraphInputs(g, n)
	res, err := sim.Run(sim.Config{N: n, MaxCorrupt: 1, MaxRounds: graph.Rounds(g, 1) + 2},
		graphMachines(t, g, n, 1, inputs))
	if err != nil {
		t.Fatal(err)
	}
	for p, raw := range res.Outputs {
		if raw.(tree.VertexID) != inputs[p] {
			t.Fatalf("party %d output %v, want own input %d", p, raw, int(inputs[p]))
		}
	}
}

// TestDecode pins the three decode cases on a concrete chain.
func TestDecode(t *testing.T) {
	g := graph.NewCliqueChain(3, 3) // triangles {0,1,2},{2,3,4},{4,5,6}; cuts 2 and 4
	bc := g.BlockCutTree()
	nodeOf := func(label string) tree.VertexID {
		v, err := bc.VertexByLabel(label)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// Cut node: the cut vertex itself.
	if got := g.Decode(0, g.Eta(2)); got != 2 {
		t.Fatalf("decode(cut 2) = %d", int(got))
	}
	// Own block: the party's own input.
	if got := g.Decode(0, nodeOf("b0")); got != 0 {
		t.Fatalf("decode(own block) = %d", int(got))
	}
	// Far block: the gate cut vertex toward the input. Blocks sort by vertex
	// list, so b0 = {0,1,2}, b1 = {2,3,4}, b2 = {4,5,6}; from input 0 the
	// gate of b2 is cut vertex 4 and the gate of b1 is cut vertex 2.
	if got := g.Decode(0, nodeOf("b2")); got != 4 {
		t.Fatalf("decode(far block b2) = %d, want gate 4", int(got))
	}
	if got := g.Decode(0, nodeOf("b1")); got != 2 {
		t.Fatalf("decode(mid block b1) = %d, want gate 2", int(got))
	}
}

func TestNewMachineRejects(t *testing.T) {
	g := graph.NewCycle(4)
	if _, err := graph.NewMachine(graph.Config{Graph: nil, N: 4, T: 1, ID: 0, Input: 0}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := graph.NewMachine(graph.Config{Graph: g, N: 4, T: 1, ID: 0, Input: 99}); err == nil {
		t.Fatal("out-of-range input accepted")
	}
}
