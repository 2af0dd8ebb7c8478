package treeaa

// Integration tests: full-system executions crossing every module — tree
// families × adversary strategies × (n, t) configurations × both simulator
// drivers — asserting the Definition 2 properties (Termination, Validity,
// 1-Agreement) on every run. These complement the per-package unit tests
// with end-to-end coverage.

import (
	"fmt"
	"math/rand"
	"testing"

	"treeaa/internal/adversary"
	"treeaa/internal/baseline"
	"treeaa/internal/core"
	"treeaa/internal/exactaa"
	"treeaa/internal/sim"
	"treeaa/internal/transport"
	"treeaa/internal/tree"
)

// assertAA checks Definition 2 over the honest outputs.
func assertAA(t *testing.T, tr *tree.Tree, inputs []tree.VertexID, corrupt map[sim.PartyID]bool, outputs map[sim.PartyID]tree.VertexID, ctx string) {
	t.Helper()
	var honestIn []tree.VertexID
	want := 0
	for i, v := range inputs {
		if !corrupt[sim.PartyID(i)] {
			honestIn = append(honestIn, v)
			want++
		}
	}
	hull := make(map[tree.VertexID]bool)
	for _, v := range tr.ConvexHull(honestIn) {
		hull[v] = true
	}
	got := 0
	var outs []tree.VertexID
	for p, v := range outputs {
		if corrupt[p] {
			continue
		}
		got++
		if !hull[v] {
			t.Errorf("%s: validity violated at party %d (output %s)", ctx, p, tr.Label(v))
		}
		outs = append(outs, v)
	}
	if got != want {
		t.Errorf("%s: termination violated: %d of %d honest outputs", ctx, got, want)
	}
	for i := range outs {
		for j := i + 1; j < len(outs); j++ {
			if d := tr.Dist(outs[i], outs[j]); d > 1 {
				t.Errorf("%s: 1-agreement violated: %s vs %s (distance %d)",
					ctx, tr.Label(outs[i]), tr.Label(outs[j]), d)
			}
		}
	}
}

// strategyFactory builds an adversary for a given tree and (n, t).
type strategyFactory struct {
	name string
	mk   func(tr *tree.Tree, n, t int, seed int64) sim.Adversary
}

func treeAAStrategies() []strategyFactory {
	return []strategyFactory{
		{"none", func(*tree.Tree, int, int, int64) sim.Adversary { return nil }},
		{"silent", func(_ *tree.Tree, n, t int, _ int64) sim.Adversary {
			return &adversary.Silent{IDs: adversary.FirstParties(n, t)}
		}},
		{"crash-staggered", func(tr *tree.Tree, n, t int, _ int64) sim.Adversary {
			ids := adversary.FirstParties(n, t)
			rounds := make([]int, len(ids))
			for i := range rounds {
				rounds[i] = 2 + 3*i
			}
			return &adversary.CrashAt{IDs: ids, Rounds: rounds}
		}},
		{"equivocator-all-phases", func(tr *tree.Tree, n, t int, _ int64) sim.Adversary {
			ids := adversary.FirstParties(n, t)
			return composePhases(tr, t, func(p core.PhaseTag, _ int) sim.Adversary {
				return &adversary.GradecastEquivocator{IDs: ids, N: n, Tag: p.Tag, StartRound: p.StartRound, Lo: -99, Hi: 9e5}
			})
		}},
		{"splitvote-all-phases", func(tr *tree.Tree, n, t int, _ int64) sim.Adversary {
			ids := adversary.FirstParties(n, t)
			return composePhases(tr, t, func(p core.PhaseTag, _ int) sim.Adversary {
				return &adversary.SplitVote{IDs: ids, N: n, T: t, Tag: p.Tag, StartRound: p.StartRound, PerIteration: 1}
			})
		}},
		{"halfburn-all-phases", func(tr *tree.Tree, n, t int, _ int64) sim.Adversary {
			ids := adversary.FirstParties(n, t)
			return composePhases(tr, t, func(p core.PhaseTag, _ int) sim.Adversary {
				return &adversary.HalfBurn{IDs: ids, N: n, T: t, Tag: p.Tag, StartRound: p.StartRound}
			})
		}},
		{"replay", func(_ *tree.Tree, n, t int, _ int64) sim.Adversary {
			return &adversary.Replay{IDs: adversary.FirstParties(n, t), Delay: 3}
		}},
		{"noise", func(tr *tree.Tree, n, t int, seed int64) sim.Adversary {
			ids := adversary.FirstParties(n, t)
			return composePhases(tr, t, func(p core.PhaseTag, k int) sim.Adversary {
				return &adversary.RandomNoise{IDs: ids, N: n, Tag: p.Tag, StartRound: p.StartRound, Seed: seed + int64(1000*k), MaxVal: 2 * tr.NumVertices()}
			})
		}},
	}
}

// composePhases builds one sub-strategy per active protocol phase.
func composePhases(tr *tree.Tree, t int, mk func(p core.PhaseTag, k int) sim.Adversary) sim.Adversary {
	var parts []sim.Adversary
	for k, p := range core.PhaseTags(tr, t) {
		parts = append(parts, mk(p, k))
	}
	return &adversary.Compose{Strategies: parts}
}

func integrationTrees() map[string]*tree.Tree {
	return map[string]*tree.Tree{
		"path64":      tree.NewPath(64),
		"star40":      tree.NewStar(40),
		"spider4x12":  tree.NewSpider(4, 12),
		"caterpillar": tree.NewCaterpillar(12, 2),
		"binary5":     tree.NewCompleteKAry(2, 5),
		"random77":    tree.RandomPruefer(77, rand.New(rand.NewSource(99))),
		"figure3":     tree.Figure3Tree(),
	}
}

func TestIntegrationTreeAAMatrix(t *testing.T) {
	for treeName, tr := range integrationTrees() {
		for _, nt := range [][2]int{{4, 1}, {7, 2}} {
			n, tc := nt[0], nt[1]
			inputs := make([]tree.VertexID, n)
			for i := range inputs {
				inputs[i] = tree.VertexID((i * 13) % tr.NumVertices())
			}
			corrupt := make(map[sim.PartyID]bool)
			for _, id := range adversary.FirstParties(n, tc) {
				corrupt[id] = true
			}
			for _, s := range treeAAStrategies() {
				name := fmt.Sprintf("%s/n=%d/%s", treeName, n, s.name)
				t.Run(name, func(t *testing.T) {
					res, err := core.Run(tr, n, tc, inputs, s.mk(tr, n, tc, 7))
					if err != nil {
						t.Fatal(err)
					}
					assertAA(t, tr, inputs, corrupt, res.Outputs, name)
					if budget := core.Rounds(tr, tc) + 2; res.Rounds > budget {
						t.Errorf("%s: %d rounds exceeds budget %d", name, res.Rounds, budget)
					}
				})
			}
		}
	}
}

func TestIntegrationBaselineMatrix(t *testing.T) {
	for treeName, tr := range integrationTrees() {
		n, tc := 7, 2
		inputs := make([]tree.VertexID, n)
		for i := range inputs {
			inputs[i] = tree.VertexID((i * 17) % tr.NumVertices())
		}
		corrupt := make(map[sim.PartyID]bool)
		for _, id := range adversary.FirstParties(n, tc) {
			corrupt[id] = true
		}
		t.Run(treeName, func(t *testing.T) {
			outputs, _, err := baseline.Run(tr, n, tc, inputs, &adversary.Silent{IDs: adversary.FirstParties(n, tc)})
			if err != nil {
				t.Fatal(err)
			}
			assertAA(t, tr, inputs, corrupt, outputs, treeName)
		})
	}
}

// TestIntegrationConcurrentDriverMatrix runs TreeAA under the goroutine-
// per-party driver across families (run with -race in CI).
func TestIntegrationConcurrentDriverMatrix(t *testing.T) {
	for treeName, tr := range integrationTrees() {
		n, tc := 4, 1
		inputs := make([]tree.VertexID, n)
		for i := range inputs {
			inputs[i] = tree.VertexID((i * 7) % tr.NumVertices())
		}
		t.Run(treeName, func(t *testing.T) {
			machines := make([]sim.Machine, n)
			for i := 0; i < n; i++ {
				m, err := core.NewMachine(core.Config{Tree: tr, N: n, T: tc, ID: sim.PartyID(i), Input: inputs[i]})
				if err != nil {
					t.Fatal(err)
				}
				machines[i] = m
			}
			res, err := sim.RunConcurrent(sim.Config{N: n, MaxCorrupt: tc, MaxRounds: core.Rounds(tr, tc) + 2}, machines)
			if err != nil {
				t.Fatal(err)
			}
			outputs := make(map[sim.PartyID]tree.VertexID, len(res.Outputs))
			for p, v := range res.Outputs {
				outputs[p] = v.(tree.VertexID)
			}
			assertAA(t, tr, inputs, nil, outputs, treeName)
		})
	}
}

// TestIntegrationAllProtocolsAgreeOnSameScenario cross-checks the three
// tree protocols on one scenario: all satisfy Validity; TreeAA and the
// baseline are 1-agreeing; exactaa is exact.
func TestIntegrationAllProtocolsAgreeOnSameScenario(t *testing.T) {
	tr := tree.NewSpider(3, 10)
	n, tc := 7, 2 // tc < n/3 suits all three protocols
	inputs := make([]tree.VertexID, n)
	for i := range inputs {
		inputs[i] = tree.VertexID((i * 5) % tr.NumVertices())
	}
	corrupt := make(map[sim.PartyID]bool)
	for _, id := range adversary.FirstParties(n, tc) {
		corrupt[id] = true
	}
	silent := func() sim.Adversary { return &adversary.Silent{IDs: adversary.FirstParties(n, tc)} }

	res, err := core.Run(tr, n, tc, inputs, silent())
	if err != nil {
		t.Fatal(err)
	}
	assertAA(t, tr, inputs, corrupt, res.Outputs, "treeaa")

	bOut, _, err := baseline.Run(tr, n, tc, inputs, silent())
	if err != nil {
		t.Fatal(err)
	}
	assertAA(t, tr, inputs, corrupt, bOut, "baseline")

	eOut, _, err := exactaa.Run(tr, n, tc, inputs, silent())
	if err != nil {
		t.Fatal(err)
	}
	assertAA(t, tr, inputs, corrupt, eOut, "exactaa")
	var prev tree.VertexID = tree.None
	for p, v := range eOut {
		if corrupt[p] {
			continue
		}
		if prev != tree.None && v != prev {
			t.Errorf("exactaa outputs differ: %s vs %s", tr.Label(v), tr.Label(prev))
		}
		prev = v
	}
}

// TestIntegrationLargeScale runs one big configuration end to end.
func TestIntegrationLargeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large scale: skipped with -short")
	}
	tr := tree.RandomPruefer(2000, rand.New(rand.NewSource(123)))
	n, tc := 13, 4
	inputs := make([]tree.VertexID, n)
	for i := range inputs {
		inputs[i] = tree.VertexID((i * 151) % tr.NumVertices())
	}
	corrupt := make(map[sim.PartyID]bool)
	for _, id := range adversary.FirstParties(n, tc) {
		corrupt[id] = true
	}
	adv := &adversary.Compose{Strategies: []sim.Adversary{
		&adversary.SplitVote{IDs: adversary.FirstParties(n, tc), N: n, T: tc, Tag: core.TagPathsFinder, PerIteration: 2},
		&adversary.SplitVote{IDs: adversary.FirstParties(n, tc), N: n, T: tc, Tag: core.TagProjection,
			StartRound: core.PathsFinderRounds(tr, tc) + 1, PerIteration: 2},
	}}
	res, err := core.Run(tr, n, tc, inputs, adv)
	if err != nil {
		t.Fatal(err)
	}
	assertAA(t, tr, inputs, corrupt, res.Outputs, "large")
	t.Logf("large scale: |V|=%d n=%d t=%d rounds=%d msgs=%d bytes=%d",
		tr.NumVertices(), n, tc, res.Rounds, res.Messages, res.Bytes)
}

// TestIntegrationTreeAAUnderOmission: Byzantine tolerance subsumes
// send-omission, so TreeAA must satisfy AA with up to t omission-faulty
// parties whose sends are dropped adversarially — in process, and on real
// links, where each omission seat drops its own sends and the loopback
// cluster must reproduce the engine's Result.
func TestIntegrationTreeAAUnderOmission(t *testing.T) {
	tr := tree.NewCaterpillar(12, 2)
	n, tc := 7, 2
	inputs := make([]tree.VertexID, n)
	for i := range inputs {
		inputs[i] = tree.VertexID((i * 5) % tr.NumVertices())
	}
	ids := adversary.FirstParties(n, tc)
	faulty := map[sim.PartyID]bool{ids[0]: true, ids[1]: true}
	for _, mode := range []string{"halves", "random"} {
		adv := &adversary.SendOmitter{IDs: ids, N: n, Halves: mode == "halves", Drop: 0.6, Seed: 3}
		res, err := core.Run(tr, n, tc, inputs, adv)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		assertAA(t, tr, inputs, faulty, res.Outputs, "omission/"+mode)

		machines := make([]sim.Machine, n)
		for i := range machines {
			if machines[i], err = core.NewMachine(core.Config{Tree: tr, N: n, T: tc, ID: sim.PartyID(i), Input: inputs[i]}); err != nil {
				t.Fatal(err)
			}
		}
		cfg := sim.Config{N: n, MaxCorrupt: tc, MaxRounds: core.Rounds(tr, tc) + 2, Adversary: adv}
		tcp, err := transport.LocalCluster(cfg, machines, transport.Options{})
		if err != nil {
			t.Fatalf("%s over tcp: %v", mode, err)
		}
		if tcp.Rounds != res.Rounds || tcp.Messages != res.Messages || tcp.Bytes != res.Bytes ||
			len(tcp.Outputs) != len(res.Outputs) {
			t.Errorf("%s: tcp %+v, sim %+v", mode, tcp, res)
		}
		for p, v := range res.Outputs {
			if tcp.Outputs[p] != v {
				t.Errorf("%s: party %d outputs %v over tcp, %v in process", mode, p, tcp.Outputs[p], v)
			}
		}
		t.Logf("omission/%s: %d rounds, %d messages, %d bytes on both fabrics", mode, res.Rounds, res.Messages, res.Bytes)
	}
}

// TestIntegrationLargeHalfBurn: the strongest attack at a larger scale,
// targeting both TreeAA phases.
func TestIntegrationLargeHalfBurn(t *testing.T) {
	if testing.Short() {
		t.Skip("large scale: skipped with -short")
	}
	tr := tree.NewCaterpillar(100, 2) // 300 vertices, non-path
	n, tc := 13, 4
	inputs := make([]tree.VertexID, n)
	for i := range inputs {
		inputs[i] = tree.VertexID((i * 23) % tr.NumVertices())
	}
	ids := adversary.FirstParties(n, tc)
	corrupt := make(map[sim.PartyID]bool)
	for _, id := range ids {
		corrupt[id] = true
	}
	adv := composePhases(tr, tc, func(p core.PhaseTag, _ int) sim.Adversary {
		return &adversary.HalfBurn{IDs: ids, N: n, T: tc, Tag: p.Tag, StartRound: p.StartRound}
	})
	res, err := core.Run(tr, n, tc, inputs, adv)
	if err != nil {
		t.Fatal(err)
	}
	assertAA(t, tr, inputs, corrupt, res.Outputs, "large-halfburn")
	t.Logf("large halfburn: rounds=%d msgs=%d bytes=%d", res.Rounds, res.Messages, res.Bytes)
}
