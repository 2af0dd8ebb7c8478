package core_test

import (
	"testing"

	"treeaa/internal/cli"
	"treeaa/internal/core"
	"treeaa/internal/sim"
)

// runSpace runs one execution of space spec through the entry points every
// driver uses (cli.Space machines, the named library adversary at seed 1,
// spread inputs) and returns the engine's counts.
func runSpace(t *testing.T, spec, adversary string, n, tc int) *sim.Result {
	t.Helper()
	sp, err := cli.ParseSpaceSpec(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{N: n, MaxCorrupt: tc, MaxRounds: sp.Rounds() + 2}
	machines := make([]sim.Machine, n)
	for p, in := range sp.SpreadInputs(n) {
		if machines[p], _, err = sp.NewMachine(n, tc, sim.PartyID(p), in); err != nil {
			t.Fatal(err)
		}
	}
	if adversary != "" {
		if cfg.Adversary, _, err = sp.BuildAdversary(adversary, n, tc, 1); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sim.Run(cfg, machines)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestScheduleByT pins the round schedule as a function of the fault budget.
// With t <= 1 each RealAA phase is t+1 iterations (the one-fault collapse),
// so the served spider:3:3 session runs 13 rounds; from t = 2 on nothing
// moved: the four kernel-batch cells of the layered benchmark (t = 5 and 10)
// reproduce the rounds, messages and bytes of the t-free schedule they ran
// before (sums 136 / 92,412 / 15,857,410, the benchmark's traced counts):
// those executions are unchanged.
func TestScheduleByT(t *testing.T) {
	for _, c := range []struct {
		space  string
		n, t   int
		rounds int // including the final processing step
	}{
		{"spider:3:3", 4, 0, 7}, {"spider:3:3", 4, 1, 13}, {"spider:3:3", 7, 2, 43},
		{"path:40", 4, 0, 4}, {"path:40", 4, 1, 7},
	} {
		sp, err := cli.ParseSpaceSpec(c.space, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := core.Rounds(sp.Tree, c.t) + 1; got != c.rounds {
			t.Errorf("%s t=%d: core.Rounds+1 = %d, want %d", c.space, c.t, got, c.rounds)
		}
		// The round a machine advertises as its last is the one sim.Run stops in.
		m, _, err := sp.NewMachine(c.n, c.t, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.(interface{ FinalRound() int }).FinalRound(); got != c.rounds {
			t.Errorf("%s t=%d: FinalRound = %d, want %d", c.space, c.t, got, c.rounds)
		}
		for _, adversary := range []string{"", "splitvote"} {
			if got := runSpace(t, c.space, adversary, c.n, c.t).Rounds; got != c.rounds {
				t.Errorf("%s n=%d t=%d %q: ran %d rounds, want %d", c.space, c.n, c.t, adversary, got, c.rounds)
			}
		}
		if ceiling := sp.Rounds(); core.Rounds(sp.Tree, c.t) > ceiling {
			t.Errorf("%s t=%d: schedule above Space.Rounds() = %d", c.space, c.t, ceiling)
		}
	}

	for _, c := range []struct {
		space, adversary      string
		n, t                  int
		rounds, msgs, payload int
	}{
		{"path:1024", "splitvote", 16, 5, 28, 10324, 1226810},
		{"random:4096", "", 16, 5, 55, 27648, 4070400},
		{"path:2048", "splitvote", 32, 10, 31, 43688, 8965320},
		{"graph:cliquechain:8:6", "", 16, 5, 22, 10752, 1594880},
	} {
		sp, err := cli.ParseSpaceSpec(c.space, 1)
		if err != nil {
			t.Fatal(err)
		}
		if m, _, err := sp.NewMachine(c.n, c.t, 0, 0); err != nil {
			t.Fatal(err)
		} else if got := m.(interface{ FinalRound() int }).FinalRound(); got != c.rounds {
			t.Errorf("%s t=%d: FinalRound = %d, want %d", c.space, c.t, got, c.rounds)
		}
		res := runSpace(t, c.space, c.adversary, c.n, c.t)
		if got := [3]int{res.Rounds, res.Messages, res.Bytes}; got != [3]int{c.rounds, c.msgs, c.payload} {
			t.Errorf("%s n=%d t=%d %q: rounds/messages/bytes = %v, want %v (what the t-free schedule ran)",
				c.space, c.n, c.t, c.adversary, got, [3]int{c.rounds, c.msgs, c.payload})
		}
	}
}
