package pathaa

import (
	"math/rand"
	"slices"
	"testing"

	"treeaa/internal/adversary"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// checkTreeAA asserts Validity (outputs in honest inputs' hull) and
// 1-Agreement (outputs pairwise within distance 1) for honest parties.
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
			t.Errorf("validity violated: party %d output %s outside hull %v",
				p, tr.Label(v), tr.Labels(tr.ConvexHull(honestIn)))
		}
		outs = append(outs, v)
	}
	for i := range outs {
		for j := i + 1; j < len(outs); j++ {
			if d := tr.Dist(outs[i], outs[j]); d > 1 {
				t.Errorf("1-agreement violated: outputs %s and %s at distance %d",
					tr.Label(outs[i]), tr.Label(outs[j]), d)
			}
		}
	}
}

func pathOf(tr *tree.Tree) []tree.VertexID {
	_, a, b := tr.Diameter()
	if b < a {
		a, b = b, a
	}
	return tr.Path(a, b)
}

func TestPathAAHonest(t *testing.T) {
	// Section 4: the input space is a path.
	tr := tree.NewPath(20)
	p := pathOf(tr)
	n := 5
	inputs := []tree.VertexID{0, 19, 10, 5, 15}
	outputs, err := Run(tr, p, n, 1, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outputs) != n {
		t.Fatalf("got %d outputs, want %d", len(outputs), n)
	}
	checkTreeAA(t, tr, inputs, nil, outputs)
}

func TestPathAATrivialPath(t *testing.T) {
	// Single-vertex and single-edge input spaces are trivial.
	for _, k := range []int{1, 2} {
		tr := tree.NewPath(k)
		p := pathOf(tr)
		inputs := make([]tree.VertexID, 4)
		for i := range inputs {
			inputs[i] = tree.VertexID(i % k)
		}
		outputs, err := Run(tr, p, 4, 1, inputs, nil)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		checkTreeAA(t, tr, inputs, nil, outputs)
	}
}

func TestKnownPathProtocolFigure2(t *testing.T) {
	// Section 5 on the Figure 2 tree: the known path is v1..v8; inputs hang
	// off the path and are first projected.
	var b tree.Builder
	for _, e := range [][2]string{
		{"v1", "v2"}, {"v2", "v3"}, {"v3", "v4"}, {"v4", "v5"},
		{"v5", "v6"}, {"v6", "v7"}, {"v7", "v8"},
		{"v3", "w1"}, {"w1", "u1"}, {"v4", "u2"}, {"v6", "w2"}, {"w2", "u3"},
	} {
		b.AddEdge(e[0], e[1])
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var p []tree.VertexID
	for _, lbl := range []string{"v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8"} {
		p = append(p, tr.MustVertex(lbl))
	}
	inputs := []tree.VertexID{tr.MustVertex("u1"), tr.MustVertex("u2"), tr.MustVertex("u3"), tr.MustVertex("v5")}
	outputs, err := Run(tr, p, 4, 1, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkTreeAA(t, tr, inputs, nil, outputs)
	// Outputs must lie on the path (the protocol only outputs path
	// vertices).
	onPath := make(map[tree.VertexID]bool)
	for _, v := range p {
		onPath[v] = true
	}
	for pid, v := range outputs {
		if !onPath[v] {
			t.Errorf("party %d output %s not on the known path", pid, tr.Label(v))
		}
	}
}

func TestPathAAUnderEquivocation(t *testing.T) {
	tr := tree.NewPath(40)
	p := pathOf(tr)
	n, tc := 7, 2
	inputs := []tree.VertexID{0, 39, 20, 10, 30, 0, 0}
	ids := adversary.FirstParties(n, tc)
	corrupt := map[sim.PartyID]bool{ids[0]: true, ids[1]: true}
	adv := &adversary.GradecastEquivocator{IDs: ids, N: n, Tag: "pathaa", Lo: -100, Hi: 100}
	outputs, err := Run(tr, p, n, tc, inputs, adv)
	if err != nil {
		t.Fatal(err)
	}
	checkTreeAA(t, tr, inputs, corrupt, outputs)
}

func TestPathAAUnderSplitVote(t *testing.T) {
	tr := tree.NewPath(60)
	p := pathOf(tr)
	n, tc := 7, 2
	inputs := []tree.VertexID{0, 59, 30, 15, 45, 0, 0}
	ids := adversary.FirstParties(n, tc)
	corrupt := map[sim.PartyID]bool{ids[0]: true, ids[1]: true}
	adv := &adversary.SplitVote{IDs: ids, N: n, T: tc, Tag: "pathaa", PerIteration: 1}
	outputs, err := Run(tr, p, n, tc, inputs, adv)
	if err != nil {
		t.Fatal(err)
	}
	checkTreeAA(t, tr, inputs, corrupt, outputs)
}

func TestPathAARandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		tr := tree.RandomPruefer(3+rng.Intn(30), rng)
		p := pathOf(tr)
		n := 4 + rng.Intn(6)
		tc := (n - 1) / 3
		inputs := make([]tree.VertexID, n)
		for i := range inputs {
			inputs[i] = tree.VertexID(rng.Intn(tr.NumVertices()))
		}
		ids := adversary.FirstParties(n, tc)
		corrupt := make(map[sim.PartyID]bool, tc)
		for _, id := range ids {
			corrupt[id] = true
		}
		// Lemma 1 requires the known path to intersect the honest hull; a
		// diameter path might miss it, so check and re-anchor via an honest
		// input's projection... a diameter path always intersects every
		// hull? No: use a path through an honest input to be safe.
		var honestIn []tree.VertexID
		for i, v := range inputs {
			if !corrupt[sim.PartyID(i)] {
				honestIn = append(honestIn, v)
			}
		}
		_, end, _ := tr.Diameter()
		p = tr.Path(end, honestIn[0]) // guaranteed to touch the hull
		if len(p) == 1 {
			continue
		}
		adv := &adversary.RandomNoise{IDs: ids, N: n, Tag: "pathaa", Seed: int64(trial), MaxVal: 2 * tr.NumVertices()}
		outputs, err := Run(tr, p, n, tc, inputs, adv)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkTreeAA(t, tr, inputs, corrupt, outputs)
	}
}

func TestNewMachineErrors(t *testing.T) {
	tr := tree.NewPath(5)
	p := pathOf(tr)
	base := Config{Tree: tr, Path: p, N: 4, T: 1, ID: 0, Input: 0}
	if _, err := NewMachine(base); err != nil {
		t.Fatalf("base config: %v", err)
	}
	bad := []func(c *Config){
		func(c *Config) { c.Tree = nil },
		func(c *Config) { c.Path = nil },
		func(c *Config) { c.Path = []tree.VertexID{0, 2} }, // not adjacent
		func(c *Config) { c.Input = 99 },
		func(c *Config) { c.N = 0 },
		func(c *Config) { c.T = 2 },
	}
	for i, mutate := range bad {
		c := base
		mutate(&c)
		if _, err := NewMachine(c); err == nil {
			t.Errorf("mutation %d: want error", i)
		}
	}
}

func TestRunInputMismatch(t *testing.T) {
	tr := tree.NewPath(5)
	if _, err := Run(tr, pathOf(tr), 3, 0, []tree.VertexID{0}, nil); err == nil {
		t.Error("want error for input count mismatch")
	}
}

func TestRoundsBudget(t *testing.T) {
	for _, tc := range []int{0, 1, 2} {
		if Rounds(1, tc) != 0 {
			t.Errorf("Rounds(1, %d) = %d, want 0", tc, Rounds(1, tc))
		}
	}
	if Rounds(100, 0) != 3 || Rounds(100, 1) != 6 {
		t.Errorf("Rounds(100, t) = %d, %d at t = 0, 1; want 3, 6", Rounds(100, 0), Rounds(100, 1))
	}
	if Rounds(100, 2) <= 6 {
		t.Errorf("Rounds(100, 2) = %d, want the Theorem 3 schedule (> 6)", Rounds(100, 2))
	}
}

func TestCanonicalOrient(t *testing.T) {
	tr := tree.NewPath(6)
	p := tr.Path(tree.VertexID(5), tree.VertexID(0)) // v6 ... v1 (reversed)
	oriented := CanonicalOrient(tr, p)
	if tr.Label(oriented[0]) != "v1" || tr.Label(oriented[5]) != "v6" {
		t.Errorf("oriented = %v", tr.Labels(oriented))
	}
	// Already canonical: unchanged.
	again := CanonicalOrient(tr, oriented)
	for i := range again {
		if again[i] != oriented[i] {
			t.Errorf("re-orientation changed the path")
		}
	}
	// Input slice untouched.
	if tr.Label(p[0]) != "v6" {
		t.Error("CanonicalOrient mutated its input")
	}
	// Single vertex path.
	if got := CanonicalOrient(tr, []tree.VertexID{3}); len(got) != 1 || got[0] != 3 {
		t.Errorf("single-vertex orientation = %v", got)
	}
}

// TestCanonicalOrientMakesIndependentPartiesAgree: two parties deriving the
// same diameter path from opposite endpoints number positions identically
// after orientation.
func TestCanonicalOrientMakesIndependentPartiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 20; trial++ {
		tr := tree.RandomPruefer(3+rng.Intn(30), rng)
		_, a, b := tr.Diameter()
		p1 := CanonicalOrient(tr, tr.Path(a, b))
		p2 := CanonicalOrient(tr, tr.Path(b, a))
		if len(p1) != len(p2) {
			t.Fatalf("trial %d: lengths differ", trial)
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("trial %d: orientations disagree at %d", trial, i)
			}
		}
	}
}

// TestNewSpanningMatchesNewMachine: on a path-shaped tree the shared
// canonical diameter path is the path NewMachine derives from either
// traversal of it — same numbering, same RealAA input — and the machine
// holds the Tree's slice itself rather than a copy.
func TestNewSpanningMatchesNewMachine(t *testing.T) {
	for _, k := range []int{2, 5, 12, 33} { // "v10" < "v2": endpoint ids vary with k
		tr := tree.NewPath(k)
		for _, in := range []tree.VertexID{0, tree.VertexID(k / 2), tree.VertexID(k - 1)} {
			cfg := Config{Tree: tr, N: 4, T: 1, ID: 1, Input: in}
			got, err := NewSpanning(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Path = tr.DiameterPath()
			want, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.cfg.Path, want.cfg.Path) || got.real.Value() != want.real.Value() {
				t.Errorf("k=%d input %d: spanning (%v, %v), explicit (%v, %v)", k, in,
					got.cfg.Path, got.real.Value(), want.cfg.Path, want.real.Value())
			}
			if &got.cfg.Path[0] != &tr.CanonicalDiameterPath()[0] {
				t.Errorf("k=%d: NewSpanning copied the path", k)
			}
		}
	}
	if _, err := NewSpanning(Config{N: 4, T: 1}); err == nil {
		t.Error("nil tree: want error")
	}
	if _, err := NewSpanning(Config{Tree: tree.NewSpider(3, 2), N: 4, T: 1}); err == nil {
		t.Error("spider: want error, the input space is not a path")
	}
	if _, err := NewSpanning(Config{Tree: tree.NewPath(5), N: 4, T: 1, Input: 99}); err == nil {
		t.Error("invalid input vertex: want error")
	}
}
