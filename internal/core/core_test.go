package core

import (
	"math/rand"
	"testing"

	"treeaa/internal/adversary"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// checkTreeAA asserts the Definition 2 properties over honest outputs:
// Termination (outputs exist), Validity (in the honest inputs' hull) and
// 1-Agreement.
func checkTreeAA(t *testing.T, tr *tree.Tree, inputs []tree.VertexID, corrupt map[sim.PartyID]bool, outputs map[sim.PartyID]tree.VertexID) {
	t.Helper()
	var honestIn []tree.VertexID
	honestCount := 0
	for i, v := range inputs {
		if !corrupt[sim.PartyID(i)] {
			honestIn = append(honestIn, v)
			honestCount++
		}
	}
	got := 0
	for p := range outputs {
		if !corrupt[p] {
			got++
		}
	}
	if got != honestCount {
		t.Errorf("termination: %d honest outputs, want %d", got, honestCount)
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
				t.Errorf("1-agreement violated: %s vs %s at distance %d",
					tr.Label(outs[i]), tr.Label(outs[j]), d)
			}
		}
	}
}

func TestTreeAAHonestFigure3(t *testing.T) {
	tr := tree.Figure3Tree()
	inputs := []tree.VertexID{
		tr.MustVertex("v3"), tr.MustVertex("v6"), tr.MustVertex("v5"), tr.MustVertex("v8"),
	}
	res, err := Run(tr, 4, 1, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkTreeAA(t, tr, inputs, nil, res.Outputs)
	if res.Rounds > Rounds(tr, 1)+2 {
		t.Errorf("used %d rounds, budget %d", res.Rounds, Rounds(tr, 1))
	}
}

func TestTreeAATrivialTrees(t *testing.T) {
	// D(T) <= 1: parties output their own inputs with zero communication.
	for _, k := range []int{1, 2} {
		tr := tree.NewPath(k)
		inputs := make([]tree.VertexID, 4)
		for i := range inputs {
			inputs[i] = tree.VertexID(i % k)
		}
		res, err := Run(tr, 4, 1, inputs, nil)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for p, v := range res.Outputs {
			if v != inputs[p] {
				t.Errorf("k=%d: party %d output %v, want own input %v", k, p, v, inputs[p])
			}
		}
		if res.Messages != 0 {
			t.Errorf("k=%d: %d messages for a trivial tree, want 0", k, res.Messages)
		}
	}
}

func TestTreeAAAllSameInput(t *testing.T) {
	tr := tree.NewSpider(3, 5)
	in := tree.VertexID(7)
	inputs := []tree.VertexID{in, in, in, in}
	res, err := Run(tr, 4, 1, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for p, v := range res.Outputs {
		if v != in {
			t.Errorf("party %d output %s, want the common input %s (hull is a single vertex)",
				p, tr.Label(v), tr.Label(in))
		}
	}
}

func TestTreeAATreeFamiliesHonest(t *testing.T) {
	families := []struct {
		name string
		tr   *tree.Tree
	}{
		{"path50", tree.NewPath(50)},
		{"star30", tree.NewStar(30)},
		{"spider", tree.NewSpider(4, 8)},
		{"caterpillar", tree.NewCaterpillar(10, 3)},
		{"binary", tree.NewCompleteKAry(2, 5)},
	}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			n := 5
			inputs := make([]tree.VertexID, n)
			step := f.tr.NumVertices() / n
			for i := range inputs {
				inputs[i] = tree.VertexID(i * step)
			}
			res, err := Run(f.tr, n, 1, inputs, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkTreeAA(t, f.tr, inputs, nil, res.Outputs)
		})
	}
}

func TestTreeAAUnderEquivocatorsBothPhases(t *testing.T) {
	tr := tree.NewCaterpillar(15, 2)
	n, tc := 7, 2
	inputs := make([]tree.VertexID, n)
	for i := range inputs {
		inputs[i] = tree.VertexID((i * 6) % tr.NumVertices())
	}
	ids := adversary.FirstParties(n, tc)
	corrupt := map[sim.PartyID]bool{ids[0]: true, ids[1]: true}
	adv := &adversary.Compose{Strategies: []sim.Adversary{
		&adversary.GradecastEquivocator{IDs: ids[:1], N: n, Tag: TagPathsFinder, Lo: -50, Hi: 500},
		&adversary.GradecastEquivocator{IDs: ids[1:], N: n, Tag: TagProjection, StartRound: PathsFinderRounds(tr, tc) + 1, Lo: -50, Hi: 500},
	}}
	res, err := Run(tr, n, tc, inputs, adv)
	if err != nil {
		t.Fatal(err)
	}
	checkTreeAA(t, tr, inputs, corrupt, res.Outputs)
}

func TestTreeAAUnderSplitVoteBothPhases(t *testing.T) {
	tr := tree.NewSpider(3, 12)
	n, tc := 10, 3
	inputs := make([]tree.VertexID, n)
	for i := range inputs {
		inputs[i] = tree.VertexID((i * 3) % tr.NumVertices())
	}
	ids := adversary.FirstParties(n, tc)
	corrupt := make(map[sim.PartyID]bool)
	for _, id := range ids {
		corrupt[id] = true
	}
	adv := &adversary.Compose{Strategies: []sim.Adversary{
		&adversary.SplitVote{IDs: ids, N: n, T: tc, Tag: TagPathsFinder, PerIteration: 1},
		&adversary.SplitVote{IDs: ids, N: n, T: tc, Tag: TagProjection, StartRound: PathsFinderRounds(tr, tc) + 1, PerIteration: 1},
	}}
	res, err := Run(tr, n, tc, inputs, adv)
	if err != nil {
		t.Fatal(err)
	}
	checkTreeAA(t, tr, inputs, corrupt, res.Outputs)
}

func TestTreeAACrashFaults(t *testing.T) {
	tr := tree.NewPath(30)
	n, tc := 7, 2
	inputs := []tree.VertexID{0, 29, 15, 7, 22, 0, 29}
	adv := &adversary.CrashAt{IDs: []sim.PartyID{5, 6}, Rounds: []int{1, 5}}
	corrupt := map[sim.PartyID]bool{5: true, 6: true}
	res, err := Run(tr, n, tc, inputs, adv)
	if err != nil {
		t.Fatal(err)
	}
	checkTreeAA(t, tr, inputs, corrupt, res.Outputs)
}

// TestFigure5ForkFallback exercises the paper's Figure 5 corner case at the
// decide step: a party holding the shorter path that sees closestInt(j) > k
// must output its own last vertex, never guess a neighbor.
func TestFigure5ForkFallback(t *testing.T) {
	// Figure 5's tree: a spine v1..v7 with a red fork hanging off v6.
	var b tree.Builder
	for _, e := range [][2]string{
		{"v1", "v2"}, {"v2", "v3"}, {"v3", "v4"}, {"v4", "v5"},
		{"v5", "v6"}, {"v6", "v7"}, {"v6", "x1"}, // x1 is the red vertex
	} {
		b.AddEdge(e[0], e[1])
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(Config{Tree: tr, N: 4, T: 1, ID: 0, Input: tr.MustVertex("v3")})
	if err != nil {
		t.Fatal(err)
	}
	// Party holds the shorter path (v1..v6), k = 6.
	var short []tree.VertexID
	for _, l := range []string{"v1", "v2", "v3", "v4", "v5", "v6"} {
		short = append(short, tr.MustVertex(l))
	}
	m.path = short

	tests := []struct {
		j    float64
		want string
	}{
		{6.6, "v6"}, // closestInt = 7 > k: fall back to v_k, do NOT guess v7 vs x1
		{7.4, "v6"}, // same
		{6.4, "v6"}, // closestInt = 6 <= k: normal output
		{3.0, "v3"},
		{1.2, "v1"},
	}
	for _, tc := range tests {
		m.done = false
		m.decide(tc.j)
		v, ok := m.Output()
		if !ok {
			t.Fatalf("decide(%v): not done", tc.j)
		}
		if got := tr.Label(v.(tree.VertexID)); got != tc.want {
			t.Errorf("decide(%v) = %s, want %s", tc.j, got, tc.want)
		}
	}
}

// TestTreeAAForkScenarioEndToEnd drives the full protocol on the Figure 5
// tree with inputs straddling the fork under adversarial noise, asserting AA
// holds (the fallback keeps outputs within {v_k*, v_k*+1}).
func TestTreeAAForkScenarioEndToEnd(t *testing.T) {
	var b tree.Builder
	for _, e := range [][2]string{
		{"v1", "v2"}, {"v2", "v3"}, {"v3", "v4"}, {"v4", "v5"},
		{"v5", "v6"}, {"v6", "v7"}, {"v6", "x1"},
	} {
		b.AddEdge(e[0], e[1])
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, tc := 4, 1
	inputs := []tree.VertexID{
		tr.MustVertex("v5"), tr.MustVertex("v7"), tr.MustVertex("v6"), tr.MustVertex("v7"),
	}
	for seed := int64(0); seed < 8; seed++ {
		ids := adversary.FirstParties(n, tc)
		corrupt := map[sim.PartyID]bool{ids[0]: true}
		adv := &adversary.RandomNoise{IDs: ids, N: n, Tag: TagPathsFinder, Seed: seed, MaxVal: 20}
		res, err := Run(tr, n, tc, inputs, adv)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkTreeAA(t, tr, inputs, corrupt, res.Outputs)
	}
}

func TestTreeAARandomizedMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 20; trial++ {
		tr := tree.RandomPruefer(3+rng.Intn(40), rng)
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
		adv := &adversary.Compose{Strategies: []sim.Adversary{
			&adversary.RandomNoise{IDs: ids, N: n, Tag: TagPathsFinder, Seed: int64(trial), MaxVal: 2 * tr.NumVertices()},
			&adversary.RandomNoise{IDs: ids, N: n, Tag: TagProjection, StartRound: PathsFinderRounds(tr, tc) + 1, Seed: int64(trial) + 1000, MaxVal: 2 * tr.NumVertices()},
		}}
		res, err := Run(tr, n, tc, inputs, adv)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkTreeAA(t, tr, inputs, corrupt, res.Outputs)
	}
}

// TestResilienceBoundary (experiment E6): with t = floor((n-1)/3) the
// protocol's guarantees hold; configuring 3T >= N is rejected outright.
func TestResilienceBoundary(t *testing.T) {
	tr := tree.NewPath(20)
	for _, n := range []int{4, 7, 10, 13} {
		tc := (n - 1) / 3
		inputs := make([]tree.VertexID, n)
		for i := range inputs {
			inputs[i] = tree.VertexID((i * 19 / (n - 1)))
		}
		ids := adversary.FirstParties(n, tc)
		corrupt := make(map[sim.PartyID]bool)
		for _, id := range ids {
			corrupt[id] = true
		}
		adv := &adversary.SplitVote{IDs: ids, N: n, T: tc, Tag: TagPathsFinder, PerIteration: 1}
		res, err := Run(tr, n, tc, inputs, adv)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkTreeAA(t, tr, inputs, corrupt, res.Outputs)
	}
	// At or above n/3 the configuration is invalid.
	if _, err := Run(tr, 6, 2, make([]tree.VertexID, 6), nil); err == nil {
		t.Error("want error for 3T >= N")
	}
}

func TestConfigValidate(t *testing.T) {
	tr := tree.Figure3Tree()
	base := Config{Tree: tr, N: 4, T: 1, ID: 0, Input: 0}
	if err := base.Validate(); err != nil {
		t.Fatalf("base: %v", err)
	}
	bad := []func(c *Config){
		func(c *Config) { c.Tree = nil },
		func(c *Config) { c.Input = 99 },
		func(c *Config) { c.N = 0 },
		func(c *Config) { c.T = -1 },
		func(c *Config) { c.T = 2 },
		func(c *Config) { c.ID = 7 },
	}
	for i, mutate := range bad {
		c := base
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: want error", i)
		}
	}
}

func TestRunInputMismatch(t *testing.T) {
	tr := tree.Figure3Tree()
	if _, err := Run(tr, 4, 1, []tree.VertexID{0}, nil); err == nil {
		t.Error("want error for input count mismatch")
	}
}

func TestRoundsBudgets(t *testing.T) {
	// Non-path trees pay both phases.
	tr := tree.NewSpider(3, 30)
	for _, tc := range []int{0, 1, 2, 4} {
		if got := Rounds(tr, tc); got != PathsFinderRounds(tr, tc)+ProjectionRounds(tr, tc) {
			t.Errorf("t=%d: Rounds = %d, want sum of phases", tc, got)
		}
	}
	// Path input spaces use the Section 4 shortcut: cheaper than the
	// two-phase budget.
	p := tree.NewPath(100)
	for _, tc := range []int{0, 1, 2} {
		if got := Rounds(p, tc); got >= PathsFinderRounds(p, tc)+ProjectionRounds(p, tc) {
			t.Errorf("t=%d: path shortcut not applied: %d rounds", tc, got)
		}
		if Rounds(tree.NewPath(2), tc) != 0 {
			t.Errorf("t=%d: trivial tree should need 0 rounds", tc)
		}
		if got := len(PhaseTags(p, tc)); got != 1 {
			t.Errorf("t=%d: path phases = %d, want 1", tc, got)
		}
		if got := PhaseTags(tr, tc); len(got) != 2 || got[1].StartRound != PathsFinderRounds(tr, tc)+1 {
			t.Errorf("t=%d: tree phases = %v, want 2 with the projection phase after PathsFinder", tc, got)
		}
		if got := len(PhaseTags(tree.NewPath(2), tc)); got != 0 {
			t.Errorf("t=%d: trivial phases = %d, want 0", tc, got)
		}
	}
}

// TestSequentialConcurrentEquivalence runs the same TreeAA execution under
// both drivers and asserts identical outputs (machine determinism).
func TestSequentialConcurrentEquivalence(t *testing.T) {
	tr := tree.NewSpider(3, 6)
	n, tc := 4, 1
	inputs := []tree.VertexID{0, 5, 11, 17}
	build := func() []sim.Machine {
		ms := make([]sim.Machine, n)
		for i := 0; i < n; i++ {
			m, err := NewMachine(Config{Tree: tr, N: n, T: tc, ID: sim.PartyID(i), Input: inputs[i]})
			if err != nil {
				t.Fatal(err)
			}
			ms[i] = m
		}
		return ms
	}
	cfg := sim.Config{N: n, MaxCorrupt: tc, MaxRounds: Rounds(tr, tc) + 2}
	seq, err := sim.Run(cfg, build())
	if err != nil {
		t.Fatal(err)
	}
	conc, err := sim.RunConcurrent(cfg, build())
	if err != nil {
		t.Fatal(err)
	}
	for p, v := range seq.Outputs {
		if conc.Outputs[p] != v {
			t.Errorf("party %d: sequential %v, concurrent %v", p, v, conc.Outputs[p])
		}
	}
	if seq.Messages != conc.Messages || seq.Bytes != conc.Bytes {
		t.Errorf("accounting differs: %+v vs %+v", seq, conc)
	}
}

func TestMachinePathAccessor(t *testing.T) {
	tr := tree.NewSpider(3, 7) // non-path: exercises the PathsFinder route
	n, tc := 4, 1
	machines := make([]sim.Machine, n)
	typed := make([]*Machine, n)
	inputs := []tree.VertexID{0, 19, 10, 5}
	for i := 0; i < n; i++ {
		m, err := NewMachine(Config{Tree: tr, N: n, T: tc, ID: sim.PartyID(i), Input: inputs[i]})
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = m
		typed[i] = m
	}
	if got := typed[0].Path(); len(got) != 0 {
		t.Errorf("Path before PathsFinder completes = %v, want empty", got)
	}
	if _, err := sim.Run(sim.Config{N: n, MaxCorrupt: tc, MaxRounds: Rounds(tr, tc) + 2}, machines); err != nil {
		t.Fatal(err)
	}
	for i, m := range typed {
		p := m.Path()
		if len(p) == 0 || p[0] != tr.Root() {
			t.Errorf("party %d path = %v", i, tr.Labels(p))
		}
		if err := tr.ValidatePath(p); err != nil {
			t.Errorf("party %d: %v", i, err)
		}
	}
}

// TestFigure5FallbackIsDefensiveInDepth documents an emergent property of
// the repaired RealAA: honest PathsFinder outputs end *identical* — not
// merely one edge apart — under every implemented adversary whenever the
// iteration budget exceeds the corruption budget. Divergence requires a
// fresh grade-1/0 split, every splitting leader is globally convicted
// within one iteration (threshold blacklisting), and once the honest
// values coincide exactly no injection can separate a trimmed midpoint —
// so with iterations > ~2t the divergence always collapses before the
// final iteration. The closestInt(j) > k fallback of the paper's line 6
// (Figure 5) therefore never fires in these executions; it remains
// load-bearing for the paper's weaker Lemma 4 guarantee (paths equal up to
// one edge) and is exercised directly by TestFigure5ForkFallback.
func TestFigure5FallbackIsDefensiveInDepth(t *testing.T) {
	tr := tree.NewCaterpillar(14, 2) // non-path: the two-phase protocol runs
	n, tc := 4, 1
	for seed := int64(0); seed < 20; seed++ {
		inputs := []tree.VertexID{39, 39, 38, 0}
		ids := adversary.FirstParties(n, tc)
		adv := &adversary.Compose{Strategies: []sim.Adversary{
			&adversary.SplitVote{IDs: ids, N: n, T: tc, Tag: TagPathsFinder, PerIteration: 1},
			&adversary.RandomNoise{IDs: ids, N: n, Tag: TagProjection,
				StartRound: PathsFinderRounds(tr, tc) + 1, Seed: seed, MaxVal: 80},
		}}
		machines := make([]sim.Machine, n)
		typed := make([]*Machine, n)
		for i := 0; i < n; i++ {
			m, err := NewMachine(Config{Tree: tr, N: n, T: tc, ID: sim.PartyID(i), Input: inputs[i]})
			if err != nil {
				t.Fatal(err)
			}
			machines[i] = m
			typed[i] = m
		}
		if _, err := sim.Run(sim.Config{N: n, MaxCorrupt: tc, MaxRounds: Rounds(tr, tc) + 2, Adversary: adv}, machines); err != nil {
			t.Fatal(err)
		}
		var first []tree.VertexID
		for i := 0; i < 3; i++ { // honest parties
			p := typed[i].Path()
			if len(p) == 0 {
				t.Fatalf("seed %d: party %d has no PathsFinder path (wrong protocol mode?)", seed, i)
			}
			if first == nil {
				first = p
				continue
			}
			if len(p) != len(first) {
				t.Fatalf("seed %d: honest paths differ in length (%d vs %d) — update the Figure 5 analysis",
					seed, len(p), len(first))
			}
			for k := range p {
				if p[k] != first[k] {
					t.Fatalf("seed %d: honest paths differ at position %d", seed, k)
				}
			}
			if typed[i].FellBack() {
				t.Fatalf("seed %d: fallback fired despite identical paths", seed)
			}
		}
	}
}

func TestPartyCountBeyondOneMaskWord(t *testing.T) {
	// The suspicion-mask repair historically capped N at 52 (float64-exact
	// bitmask); masks now span multiple gradecast words, so large N must be
	// accepted by the constructor.
	tr := tree.NewPath(10)
	for _, n := range []int{52, 53, 64} {
		if _, err := NewMachine(Config{Tree: tr, N: n, T: (n - 1) / 3, ID: 0, Input: 0}); err != nil {
			t.Errorf("N = %d rejected: %v", n, err)
		}
	}
}
