package cli

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"treeaa/internal/adversary"
	"treeaa/internal/core"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// oracleAdversary is the compiler -adversary had before the clause language
// replaced it: seven names with fixed arguments over FirstParties(n, t),
// tag-scoped strategies composed per TreeAA phase. Only the strategy
// registry it called is inlined as the struct literals it produced.
func oracleAdversary(name string, tr *tree.Tree, n, t int, seed int64) (sim.Adversary, map[sim.PartyID]bool, error) {
	if name == "none" || t == 0 {
		return nil, map[sim.PartyID]bool{}, nil
	}
	ids := adversary.FirstParties(n, t)
	corrupt := make(map[sim.PartyID]bool, len(ids))
	for _, id := range ids {
		corrupt[id] = true
	}
	perPhase := func(mk func(p core.PhaseTag, k int) sim.Adversary) sim.Adversary {
		var parts []sim.Adversary
		for k, p := range core.PhaseTags(tr, t) {
			parts = append(parts, mk(p, k))
		}
		return &adversary.Compose{Strategies: parts}
	}
	switch name {
	case "silent":
		return &adversary.Silent{IDs: ids}, corrupt, nil
	case "crash":
		rounds := make([]int, len(ids))
		rng := rand.New(rand.NewSource(seed))
		for i := range rounds {
			rounds[i] = 1 + rng.Intn(core.Rounds(tr, t)+1)
		}
		return &adversary.CrashAt{IDs: ids, Rounds: rounds}, corrupt, nil
	case "equivocator":
		return perPhase(func(p core.PhaseTag, _ int) sim.Adversary {
			return &adversary.GradecastEquivocator{IDs: ids, N: n, Tag: p.Tag, StartRound: p.StartRound, Lo: -100, Hi: 1e6}
		}), corrupt, nil
	case "splitvote":
		return perPhase(func(p core.PhaseTag, _ int) sim.Adversary {
			return &adversary.SplitVote{IDs: ids, N: n, T: t, Tag: p.Tag, StartRound: p.StartRound, PerIteration: 1}
		}), corrupt, nil
	case "halfburn":
		return perPhase(func(p core.PhaseTag, _ int) sim.Adversary {
			return &adversary.HalfBurn{IDs: ids, N: n, T: t, Tag: p.Tag, StartRound: p.StartRound}
		}), corrupt, nil
	case "noise":
		return perPhase(func(p core.PhaseTag, k int) sim.Adversary {
			return &adversary.RandomNoise{IDs: ids, N: n, Tag: p.Tag, StartRound: p.StartRound,
				Seed: seed + int64(1000*k), MaxVal: 2 * tr.NumVertices()}
		}), corrupt, nil
	}
	return nil, nil, fmt.Errorf("unknown adversary %q", name)
}

// TestBuildAdversaryMatchesOracle pins that every name -adversary accepted
// before the clause language means what it meant: on trees and a block
// graph, at t = 1, 2 and 5, sim.Run under the old compiler and under
// BuildAdversary yields DeepEqual Results (trace included) and the same
// corrupted set.
func TestBuildAdversaryMatchesOracle(t *testing.T) {
	names := []string{"none", "silent", "crash", "equivocator", "splitvote", "halfburn", "noise"}
	for _, spec := range []string{"path:20", "spider:3:4", "graph:cliquechain:3:4"} {
		sp, err := ParseSpaceSpec(spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []int{1, 2, 5} {
			n := 3*tc + 1
			inputs := sp.SpreadInputs(n)
			for _, name := range names {
				desc := fmt.Sprintf("%s t=%d %s", spec, tc, name)
				run := func(adv sim.Adversary) (*sim.Result, sim.Trace) {
					ms := make([]sim.Machine, n)
					for i := range ms {
						if ms[i], _, err = sp.NewMachine(n, tc, sim.PartyID(i), inputs[i]); err != nil {
							t.Fatal(err)
						}
					}
					var trace sim.Trace
					res, err := sim.Run(sim.Config{N: n, MaxCorrupt: tc, MaxRounds: sp.Rounds() + 2,
						Adversary: adv, Trace: &trace}, ms)
					if err != nil {
						t.Fatalf("%s: %v", desc, err)
					}
					return res, trace
				}
				oldAdv, oldCorrupt, err := oracleAdversary(name, sp.ProtocolTree(), n, tc, 3)
				if err != nil {
					t.Fatal(err)
				}
				newAdv, newCorrupt, err := sp.BuildAdversary(name, n, tc, 3)
				if err != nil {
					t.Fatalf("%s: %v", desc, err)
				}
				if !reflect.DeepEqual(oldCorrupt, newCorrupt) {
					t.Errorf("%s: corrupted %v, oracle %v", desc, newCorrupt, oldCorrupt)
				}
				wantRes, wantTrace := run(oldAdv)
				gotRes, gotTrace := run(newAdv)
				if !reflect.DeepEqual(gotRes, wantRes) || !reflect.DeepEqual(gotTrace, wantTrace) {
					t.Errorf("%s: execution differs from the oracle's", desc)
				}
			}
		}
	}
}
