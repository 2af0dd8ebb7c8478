package transport

import (
	"reflect"
	"testing"

	"treeaa/internal/cli"
	"treeaa/internal/metrics"
	"treeaa/internal/sim"
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

// TestClusterMatchesSimUnderOmission: an omission party drops its own sends
// in its own seat, so the loopback cluster reproduces sim.Run's Result and
// Trace exactly — with no host seat when every faulty party omits, and
// beside the adversary host when omission is mixed with a Byzantine clause.
func TestClusterMatchesSimUnderOmission(t *testing.T) {
	const n, tc = 7, 2
	spaces := []string{"path:40", "caterpillar:8:2", "graph:cliquechain:3:4"}
	specs := []string{"omit(drop=250)", "omit(halves=1)", "splitvote+omit(drop=500)"}
	seeds := int64(5)
	if testing.Short() {
		seeds = 2
	}
	for _, space := range spaces {
		for _, spec := range specs {
			for seed := int64(1); seed <= seeds; seed++ {
				var simTrace, tcpTrace sim.Trace
				_, simCfg, simMachines := omissionRun(t, space, spec, n, tc, seed, &simTrace)
				want, err := sim.Run(simCfg, simMachines)
				if err != nil {
					t.Fatalf("%s %s seed %d: sim.Run: %v", space, spec, seed, err)
				}
				_, tcpCfg, tcpMachines := omissionRun(t, space, spec, n, tc, seed, &tcpTrace)
				got, err := LocalCluster(tcpCfg, tcpMachines, Options{})
				if err != nil {
					t.Fatalf("%s %s seed %d: LocalCluster: %v", space, spec, seed, err)
				}
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(tcpTrace, simTrace) {
					t.Errorf("%s %s seed %d: diverges\n tcp: %+v %+v\n sim: %+v %+v",
						space, spec, seed, got, tcpTrace, want, simTrace)
				}
			}
		}
	}
}

// TestClusterOmissionCrashRestart crashes an omission seat in its round-3
// send loop: the restarted machine is wrapped again and re-filters its
// replayed rounds, which must reproduce what the first incarnation sent —
// the filter is a pure function of (round, party, outbox) — so the Result
// is still sim.Run's.
func TestClusterOmissionCrashRestart(t *testing.T) {
	const n, tc, seed = 7, 2, 3
	for _, spec := range []string{"omit(drop=500)", "splitvote+omit(drop=500)"} {
		var simTrace, tcpTrace sim.Trace
		_, simCfg, simMachines := omissionRun(t, "path:40", spec, n, tc, seed, &simTrace)
		want, err := sim.Run(simCfg, simMachines)
		if err != nil {
			t.Fatal(err)
		}
		sp, tcpCfg, tcpMachines := omissionRun(t, "path:40", spec, n, tc, seed, &tcpTrace)
		crash := tcpCfg.Adversary.(sim.OutboxFilter).OmissionParties()[0]
		inputs := sp.SpreadInputs(n)
		var stats metrics.ChaosStats
		got, err := LocalCluster(tcpCfg, tcpMachines, Options{
			Chaos:     &stats,
			CrashPlan: map[sim.PartyID]int{crash: 3},
			Restart: func(p sim.PartyID) (sim.Machine, error) {
				m, _, err := sp.NewMachine(n, tc, p, inputs[p])
				return m, err
			},
		})
		if err != nil {
			t.Fatalf("%s: LocalCluster: %v", spec, err)
		}
		if c := stats.Crashes.Load(); c != 1 {
			t.Errorf("%s: %d crashes injected, want 1", spec, c)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(tcpTrace, simTrace) {
			t.Errorf("%s: crash-restart of omission party %d diverges\n tcp: %+v\n sim: %+v", spec, crash, got, want)
		}
	}
}
