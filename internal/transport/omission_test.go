package transport

import (
	"fmt"
	"reflect"
	"testing"

	"treeaa/internal/adversary"
	"treeaa/internal/cli"
	"treeaa/internal/core"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// omissionRun builds one cell's config and machines from the adversary
// language, fresh per driver (strategies and machines hold state).
func omissionRun(t *testing.T, space, spec string, n, tc int, seed int64, trace *sim.Trace) (*cli.Space, sim.Config, []sim.Machine) {
	t.Helper()
	sp, err := cli.ParseSpaceSpec(space, seed)
	if err != nil {
		t.Fatal(err)
	}
	adv, _, err := sp.BuildAdversary(spec, n, tc, seed)
	if err != nil {
		t.Fatal(err)
	}
	inputs := sp.SpreadInputs(n)
	machines := make([]sim.Machine, n)
	for i := range machines {
		if machines[i], _, err = sp.NewMachine(n, tc, sim.PartyID(i), inputs[i]); err != nil {
			t.Fatal(err)
		}
	}
	cfg := sim.Config{N: n, MaxCorrupt: tc, MaxRounds: sp.Rounds() + 2, Adversary: adv, Trace: trace}
	return sp, cfg, machines
}

// sameAsSim runs one cell on sim.Run and on LocalCluster, each from a fresh
// build, and holds the cluster's Result and Trace to the engine's.
func sameAsSim(t *testing.T, desc string, build func(trace *sim.Trace) (sim.Config, []sim.Machine)) {
	t.Helper()
	var simTrace, tcpTrace sim.Trace
	want, err := sim.Run(build(&simTrace))
	if err != nil {
		t.Fatalf("%s: sim.Run: %v", desc, err)
	}
	tcpCfg, tcpMachines := build(&tcpTrace)
	got, err := LocalCluster(tcpCfg, tcpMachines, Options{})
	if err != nil {
		t.Fatalf("%s: LocalCluster: %v", desc, err)
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(tcpTrace, simTrace) {
		t.Errorf("%s: diverges\n tcp: %+v %+v\n sim: %+v %+v", desc, got, tcpTrace, want, simTrace)
	}
}

// TestClusterMatchesSimUnderOmission: an omission party drops its own sends
// in its own seat, so the loopback cluster reproduces sim.Run's Result and
// Trace exactly — with no host seat when every faulty party omits, and
// beside the adversary host when omission is mixed with a Byzantine clause.
// The mutate cells hold the host to the same: it sends the mutated bytes.
func TestClusterMatchesSimUnderOmission(t *testing.T) {
	const n, tc = 7, 2
	spaces := []string{"path:40", "caterpillar:8:2", "graph:cliquechain:3:4"}
	specs := []string{"omit(drop=250)", "omit(halves=1)", "splitvote+omit(drop=500)", "stop", "splitvote+stop(rounds=3)",
		"splitvote+mutate(rate=300)", "splitvote+omit(drop=500)+mutate(rate=300)"}
	seeds := int64(5)
	if testing.Short() {
		seeds = 2
	}
	for _, space := range spaces {
		for _, spec := range specs {
			for seed := int64(1); seed <= seeds; seed++ {
				sameAsSim(t, fmt.Sprintf("%s %s seed %d", space, spec, seed), func(trace *sim.Trace) (sim.Config, []sim.Machine) {
					_, cfg, machines := omissionRun(t, space, spec, n, tc, seed, trace)
					return cfg, machines
				})
			}
		}
	}
}

// TestClusterCrashRestart: a crashed party is a crash fault — the stop
// clause, which sends its round-2 frame to the lower half of its peers and
// nothing after — and the loopback cluster reproduces sim.Run's Result and
// Trace exactly. The stopped party sits in the middle beside the adversary
// host, at the lowest id, and at the highest id, which dials nobody.
func TestClusterCrashRestart(t *testing.T) {
	const n, tc = 7, 2
	tr := tree.NewPath(20)
	inputs := spreadInputs(tr, n, 2)
	for _, c := range []struct{ stop, byz sim.PartyID }{{3, 6}, {0, 2}, {6, 2}} {
		sameAsSim(t, fmt.Sprintf("party %d stopping at round 2", c.stop), func(trace *sim.Trace) (sim.Config, []sim.Machine) {
			stop := &adversary.Stop{IDs: []sim.PartyID{c.stop}, N: n, Rounds: []int{2}}
			return sim.Config{N: n, MaxCorrupt: tc, MaxRounds: core.Rounds(tr, tc) + 2, Trace: trace,
					Adversary: &adversary.Compose{Strategies: []sim.Adversary{stop, splitVoteAt(tr, n, tc, c.byz)}}},
				buildMachines(t, tr, n, tc, inputs)
		})
	}
}
