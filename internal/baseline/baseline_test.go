package baseline_test

import (
	"math/rand"
	"testing"

	"treeaa/internal/adversary"
	"treeaa/internal/baseline"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

func checkTreeAA(t *testing.T, tr *tree.Tree, inputs []tree.VertexID, corrupt map[sim.PartyID]bool, outputs map[sim.PartyID]tree.VertexID) {
	t.Helper()
	var honestIn []tree.VertexID
	for i, v := range inputs {
		if !corrupt[sim.PartyID(i)] {
			honestIn = append(honestIn, v)
		}
	}
	hull := make(map[tree.VertexID]bool)
	for _, v := range tr.ConvexHull(honestIn) {
		hull[v] = true
	}
	var outs []tree.VertexID
	for p, v := range outputs {
		if corrupt[p] {
			continue
		}
		if !hull[v] {
			t.Errorf("validity violated: party %d output %s outside hull", p, tr.Label(v))
		}
		outs = append(outs, v)
	}
	for i := range outs {
		for j := i + 1; j < len(outs); j++ {
			if d := tr.Dist(outs[i], outs[j]); d > 1 {
				t.Errorf("1-agreement violated: %s vs %s at distance %d",
					tr.Label(outs[i]), tr.Label(outs[j]), d)
			}
		}
	}
}

func TestIterationsBudget(t *testing.T) {
	tests := []struct{ d, want int }{
		{0, 0}, {1, 0}, {2, 3}, {4, 4}, {16, 6}, {100, 9},
	}
	for _, tc := range tests {
		if got := baseline.Iterations(tc.d); got != tc.want {
			t.Errorf("Iterations(%d) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

func TestBaselineHonest(t *testing.T) {
	tr := tree.NewPath(33)
	n := 5
	inputs := []tree.VertexID{0, 32, 16, 8, 24}
	outputs, _, err := baseline.Run(tr, n, 1, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkTreeAA(t, tr, inputs, nil, outputs)
}

func TestBaselineHonestExactAgreementAfterOneIteration(t *testing.T) {
	// Identical multisets give identical safe areas and centers.
	tr := tree.NewSpider(3, 7)
	n := 4
	inputs := []tree.VertexID{0, 7, 14, 21}
	machines := make([]sim.Machine, n)
	for i := 0; i < n; i++ {
		m, err := baseline.NewMachine(baseline.Config{Tree: tr, N: n, T: 1, ID: sim.PartyID(i), Input: inputs[i]})
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = m
	}
	if _, err := sim.Run(sim.Config{N: n, MaxCorrupt: 1, MaxRounds: baseline.Rounds(tr) + 2}, machines); err != nil {
		t.Fatal(err)
	}
	var first tree.VertexID
	for i, mach := range machines {
		h := mach.(*baseline.Machine).History()
		if i == 0 {
			first = h[0]
		}
		if h[0] != first {
			t.Errorf("party %d: first-iteration value %s differs from %s",
				i, tr.Label(h[0]), tr.Label(first))
		}
		if h[len(h)-1] != h[0] {
			t.Errorf("party %d drifted after agreement: %v", i, tr.Labels(h))
		}
	}
}

// vertexSplitter equivocates against the baseline every iteration: it sends
// one hull extreme to half the parties and the other extreme to the rest —
// undetectable by plain broadcasts.
type vertexSplitter struct {
	ids    []sim.PartyID
	n      int
	tag    string
	lo, hi tree.VertexID
}

func (a *vertexSplitter) Initial() []sim.PartyID { return a.ids }
func (a *vertexSplitter) Step(r int, _ []sim.Message, _ map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	var msgs []sim.Message
	for _, from := range a.ids {
		for to := 0; to < a.n; to++ {
			v := a.lo
			if to >= a.n/2 {
				v = a.hi
			}
			msgs = append(msgs, sim.Message{From: from, To: sim.PartyID(to), Payload: baseline.VertexMsg{Tag: a.tag, Iter: r, V: v}})
		}
	}
	return msgs, nil
}

func TestBaselineUnderSplitter(t *testing.T) {
	tr := tree.NewPath(65)
	n, tc := 7, 2
	inputs := []tree.VertexID{0, 64, 32, 16, 48, 0, 0}
	ids := adversary.FirstParties(n, tc)
	corrupt := map[sim.PartyID]bool{ids[0]: true, ids[1]: true}
	adv := &vertexSplitter{ids: ids, n: n, tag: "baseline", lo: 0, hi: 64}
	outputs, _, err := baseline.Run(tr, n, tc, inputs, adv)
	if err != nil {
		t.Fatal(err)
	}
	checkTreeAA(t, tr, inputs, corrupt, outputs)
}

func TestBaselineUnderSplitterManyTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 20; trial++ {
		tr := tree.RandomPruefer(3+rng.Intn(50), rng)
		n := 4 + rng.Intn(7)
		tc := (n - 1) / 3
		inputs := make([]tree.VertexID, n)
		for i := range inputs {
			inputs[i] = tree.VertexID(rng.Intn(tr.NumVertices()))
		}
		ids := adversary.FirstParties(n, tc)
		corrupt := make(map[sim.PartyID]bool)
		for _, id := range ids {
			corrupt[id] = true
		}
		_, a, b := tr.Diameter()
		adv := &vertexSplitter{ids: ids, n: n, tag: "baseline", lo: a, hi: b}
		outputs, _, err := baseline.Run(tr, n, tc, inputs, adv)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkTreeAA(t, tr, inputs, corrupt, outputs)
	}
}

func TestBaselineCrash(t *testing.T) {
	tr := tree.NewCaterpillar(10, 2)
	n, tc := 4, 1
	inputs := []tree.VertexID{0, 10, 20, 29}
	adv := &adversary.Silent{IDs: []sim.PartyID{3}}
	corrupt := map[sim.PartyID]bool{3: true}
	outputs, _, err := baseline.Run(tr, n, tc, inputs, adv)
	if err != nil {
		t.Fatal(err)
	}
	checkTreeAA(t, tr, inputs, corrupt, outputs)
}

func TestBaselineTrivial(t *testing.T) {
	tr := tree.NewPath(2)
	inputs := []tree.VertexID{0, 1, 0, 1}
	outputs, res, err := baseline.Run(tr, 4, 1, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkTreeAA(t, tr, inputs, nil, outputs)
	if res.Messages != 0 {
		t.Errorf("trivial tree used %d messages", res.Messages)
	}
}

func TestBaselineRoundsLogarithmic(t *testing.T) {
	// Rounds must grow like log2(D).
	r100 := baseline.Rounds(tree.NewPath(101))   // D = 100
	r1000 := baseline.Rounds(tree.NewPath(1025)) // D = 1024
	if r100 < 5 || r100 > 12 {
		t.Errorf("Rounds(D=100) = %d, want ~log2", r100)
	}
	if r1000-r100 > 5 {
		t.Errorf("Rounds grew too fast: %d -> %d", r100, r1000)
	}
}

func TestNewMachineErrors(t *testing.T) {
	tr := tree.Figure3Tree()
	base := baseline.Config{Tree: tr, N: 4, T: 1, ID: 0, Input: 0}
	if _, err := baseline.NewMachine(base); err != nil {
		t.Fatalf("base: %v", err)
	}
	bad := []func(c *baseline.Config){
		func(c *baseline.Config) { c.Tree = nil },
		func(c *baseline.Config) { c.Input = 99 },
		func(c *baseline.Config) { c.N = 0 },
		func(c *baseline.Config) { c.T = 2 },
		func(c *baseline.Config) { c.ID = 9 },
	}
	for i, mutate := range bad {
		c := base
		mutate(&c)
		if _, err := baseline.NewMachine(c); err == nil {
			t.Errorf("mutation %d: want error", i)
		}
	}
}

func TestSubtreeCenter(t *testing.T) {
	tr := tree.NewPath(9)
	all := make([]tree.VertexID, 9)
	for i := range all {
		all[i] = tree.VertexID(i)
	}
	if c := tree.SubtreeCenter(tr, all); c != 4 {
		t.Errorf("center of path = %v, want 4", c)
	}
	if c := tree.SubtreeCenter(tr, []tree.VertexID{2}); c != 2 {
		t.Errorf("center of single vertex = %v, want 2", c)
	}
	// Even-length path: tie resolves to the lower id.
	if c := tree.SubtreeCenter(tr, all[:4]); c != 1 {
		t.Errorf("center of 4-path = %v, want 1", c)
	}
}

func TestRunInputMismatch(t *testing.T) {
	tr := tree.Figure3Tree()
	if _, _, err := baseline.Run(tr, 3, 0, []tree.VertexID{0}, nil); err == nil {
		t.Error("want error for input count mismatch")
	}
}
