package pathsfinder

import (
	"math/rand"
	"testing"

	"treeaa/internal/adversary"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// checkLemma4 asserts the two PathsFinder guarantees over the honest paths:
// each intersects the honest inputs' hull, and all paths are equal up to one
// trailing edge.
func checkLemma4(t *testing.T, tr *tree.Tree, inputs []tree.VertexID, corrupt map[sim.PartyID]bool, paths map[sim.PartyID][]tree.VertexID) {
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
	var honestPaths [][]tree.VertexID
	for p, path := range paths {
		if corrupt[p] {
			continue
		}
		if err := tr.ValidatePath(path); err != nil {
			t.Fatalf("party %d: invalid path %v: %v", p, tr.Labels(path), err)
		}
		if path[0] != tr.Root() {
			t.Errorf("party %d: path does not start at the root", p)
		}
		hit := false
		for _, v := range path {
			if hull[v] {
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("party %d: path %s misses the hull", p, tr.RenderPath(path))
		}
		honestPaths = append(honestPaths, path)
	}
	// Property 2: pairwise, one path is a prefix of the other with length
	// difference at most 1.
	for i := range honestPaths {
		for j := i + 1; j < len(honestPaths); j++ {
			a, b := honestPaths[i], honestPaths[j]
			if len(a) > len(b) {
				a, b = b, a
			}
			if len(b)-len(a) > 1 {
				t.Errorf("paths differ by more than one edge:\n  %s\n  %s",
					tr.RenderPath(honestPaths[i]), tr.RenderPath(honestPaths[j]))
				continue
			}
			for k := range a {
				if a[k] != b[k] {
					t.Errorf("paths are not prefix-compatible at position %d:\n  %s\n  %s",
						k, tr.RenderPath(honestPaths[i]), tr.RenderPath(honestPaths[j]))
					break
				}
			}
		}
	}
}

func TestPathsFinderHonestFigure3(t *testing.T) {
	tr := tree.Figure3Tree()
	inputs := []tree.VertexID{
		tr.MustVertex("v3"), tr.MustVertex("v6"), tr.MustVertex("v5"), tr.MustVertex("v6"),
	}
	paths, err := Run(tr, tr.Root(), 4, 1, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("got %d paths", len(paths))
	}
	checkLemma4(t, tr, inputs, nil, paths)
}

func TestPathsFinderSingleVertexTree(t *testing.T) {
	tr := tree.NewPath(1)
	inputs := []tree.VertexID{0, 0, 0, 0}
	paths, err := Run(tr, tr.Root(), 4, 1, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for p, path := range paths {
		if len(path) != 1 || path[0] != 0 {
			t.Errorf("party %d path = %v, want [root]", p, path)
		}
	}
}

func TestPathsFinderUnderEquivocation(t *testing.T) {
	tr := tree.NewSpider(3, 10)
	n, tc := 7, 2
	inputs := make([]tree.VertexID, n)
	for i := range inputs {
		inputs[i] = tree.VertexID((i * 5) % tr.NumVertices())
	}
	ids := adversary.FirstParties(n, tc)
	corrupt := map[sim.PartyID]bool{ids[0]: true, ids[1]: true}
	adv := &adversary.GradecastEquivocator{IDs: ids, N: n, Tag: "pathsfinder", Lo: -100, Hi: 1000}
	paths, err := Run(tr, tr.Root(), n, tc, inputs, adv)
	if err != nil {
		t.Fatal(err)
	}
	checkLemma4(t, tr, inputs, corrupt, paths)
}

func TestPathsFinderUnderSplitVote(t *testing.T) {
	tr := tree.NewCaterpillar(12, 2)
	n, tc := 7, 2
	inputs := make([]tree.VertexID, n)
	for i := range inputs {
		inputs[i] = tree.VertexID((i * 7) % tr.NumVertices())
	}
	ids := adversary.FirstParties(n, tc)
	corrupt := map[sim.PartyID]bool{ids[0]: true, ids[1]: true}
	adv := &adversary.SplitVote{IDs: ids, N: n, T: tc, Tag: "pathsfinder", PerIteration: 1}
	paths, err := Run(tr, tr.Root(), n, tc, inputs, adv)
	if err != nil {
		t.Fatal(err)
	}
	checkLemma4(t, tr, inputs, corrupt, paths)
}

func TestPathsFinderRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		tr := tree.RandomPruefer(2+rng.Intn(40), rng)
		n := 4 + rng.Intn(6)
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
		adv := &adversary.RandomNoise{IDs: ids, N: n, Tag: "pathsfinder", Seed: int64(trial), MaxVal: 2 * tr.NumVertices()}
		paths, err := Run(tr, tr.Root(), n, tc, inputs, adv)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkLemma4(t, tr, inputs, corrupt, paths)
	}
}

func TestPathsFinderRoundBudget(t *testing.T) {
	tr := tree.NewPath(50)
	for _, tc := range []int{0, 1, 2, 5} {
		if Rounds(tr, tc) != 3*Iterations(tr, tc) {
			t.Errorf("t=%d: Rounds = %d, want 3*Iterations = %d", tc, Rounds(tr, tc), 3*Iterations(tr, tc))
		}
		if Iterations(tr, tc) <= 0 {
			t.Errorf("t=%d: Iterations = %d, want > 0", tc, Iterations(tr, tc))
		}
	}
	if Iterations(tr, 0) != 1 || Iterations(tr, 1) != 2 || Iterations(tr, 2) != Iterations(tr, 5) {
		t.Errorf("Iterations by t = %d, %d, %d, %d; want 1, 2, then constant",
			Iterations(tr, 0), Iterations(tr, 1), Iterations(tr, 2), Iterations(tr, 5))
	}
}

func TestNewMachineErrors(t *testing.T) {
	tr := tree.Figure3Tree()
	base := Config{Tree: tr, Root: tr.Root(), N: 4, T: 1, ID: 0, Input: 0}
	if _, err := NewMachine(base); err != nil {
		t.Fatalf("base: %v", err)
	}
	bad := []func(c *Config){
		func(c *Config) { c.Tree = nil },
		func(c *Config) { c.Root = 99 },
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
	tr := tree.Figure3Tree()
	if _, err := Run(tr, tr.Root(), 3, 0, []tree.VertexID{0}, nil); err == nil {
		t.Error("want error for input count mismatch")
	}
}

func TestMachineListAccessor(t *testing.T) {
	tr := tree.Figure3Tree()
	m, err := NewMachine(Config{Tree: tr, Root: tr.Root(), N: 4, T: 1, ID: 0, Input: 0})
	if err != nil {
		t.Fatal(err)
	}
	if m.List() == nil || m.List().Len() != 15 {
		t.Errorf("List() length = %v, want 15", m.List().Len())
	}
}
