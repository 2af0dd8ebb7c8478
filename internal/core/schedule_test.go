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

// TestScheduleByT pins the round schedule as a function of the fault budget
// (core.Rounds+1: the communication rounds and the final processing step),
// and the round the execution actually stops in, honest and under
// splitvote. With t <= 1 each RealAA phase is t+1 iterations (the one-fault
// collapse), so the spider:3:3 schedule is 13 rounds at n = 4, t = 1; an
// honest run stops in round 9, where the projection phase's iteration-1
// echoes are unanimous (the echo rule), and splitvote, which defeats that
// rule, still runs all 13. From t = 2 on the schedule is the
// longer of Theorem 3 (+2) and the DLPSW halving count, and the RealAA
// phase the output comes from also stops at its ε-witness: the four
// kernel-batch cells of the layered benchmark (t = 5 and 10) stop in 22, 42,
// 10 and 3 rounds of schedules of 31, 64, 34 and 22.
func TestScheduleByT(t *testing.T) {
	for _, c := range []struct {
		space  string
		n, t   int
		rounds int    // the schedule, including the final processing step
		ran    [2]int // the round sim.Run stops in: honest, and under splitvote
	}{
		{"spider:3:3", 4, 0, 7, [2]int{6, 6}}, {"spider:3:3", 4, 1, 13, [2]int{9, 13}},
		{"spider:3:3", 7, 2, 43, [2]int{24, 25}},
		{"path:40", 4, 0, 4, [2]int{3, 3}}, {"path:40", 4, 1, 7, [2]int{3, 7}},
	} {
		sp, err := cli.ParseSpaceSpec(c.space, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := core.Rounds(sp.ProtocolTree(), c.t) + 1; got != c.rounds {
			t.Errorf("%s t=%d: core.Rounds+1 = %d, want %d", c.space, c.t, got, c.rounds)
		}
		for i, adversary := range []string{"", "splitvote"} {
			if got := runSpace(t, c.space, adversary, c.n, c.t).Rounds; got != c.ran[i] {
				t.Errorf("%s n=%d t=%d %q: ran %d rounds, want %d", c.space, c.n, c.t, adversary, got, c.ran[i])
			}
		}
		if ceiling := sp.Rounds(); core.Rounds(sp.ProtocolTree(), c.t) > ceiling {
			t.Errorf("%s t=%d: schedule above Space.Rounds() = %d", c.space, c.t, ceiling)
		}
	}

	for _, c := range []struct {
		space, adversary      string
		n, t                  int
		schedule              int
		rounds, msgs, payload int
	}{
		{"path:1024", "splitvote", 16, 5, 31, 22, 8564, 1006810},
		{"random:4096", "", 16, 5, 64, 42, 21504, 3149824},
		{"path:2048", "splitvote", 32, 10, 34, 10, 15528, 3195336},
		{"graph:cliquechain:8:6", "", 16, 5, 22, 3, 1536, 227840},
	} {
		sp, err := cli.ParseSpaceSpec(c.space, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := core.Rounds(sp.ProtocolTree(), c.t) + 1; got != c.schedule {
			t.Errorf("%s t=%d: core.Rounds+1 = %d, want %d", c.space, c.t, got, c.schedule)
		}
		res := runSpace(t, c.space, c.adversary, c.n, c.t)
		if got := [3]int{res.Rounds, res.Messages, res.Bytes}; got != [3]int{c.rounds, c.msgs, c.payload} {
			t.Errorf("%s n=%d t=%d %q: rounds/messages/bytes = %v, want %v",
				c.space, c.n, c.t, c.adversary, got, [3]int{c.rounds, c.msgs, c.payload})
		}
	}
}

// holdOutput hides a machine's output until its schedule's last round, so
// that sim.Run drives every round of the schedule; it records the round
// the machine first offered an output, that output, and whether it still
// sent messages after it.
type holdOutput struct {
	sim.Machine
	final, round int
	decided      int
	out          any
	changed      bool
	sentAfter    bool
}

func (h *holdOutput) Step(r int, inbox []sim.Message) []sim.Message {
	h.round = r
	msgs := h.Machine.Step(r, inbox)
	v, ok := h.Machine.Output()
	switch {
	case ok && h.decided == 0:
		h.decided, h.out = r, v
	case ok && v != h.out:
		h.changed = true
	}
	if h.decided > 0 && r > h.decided && len(msgs) > 0 {
		h.sentAfter = true
	}
	return msgs
}

func (h *holdOutput) Output() (any, bool) {
	if h.round < h.final {
		return nil, false
	}
	return h.Machine.Output()
}

// TestDecidedMachineKeepsStepping: a t >= 2 machine that decided early
// (here at the echo rule) keeps its output and keeps sending to the
// schedule's end, on a path space (the shortcut phase) and a non-path tree
// (the projection phase), so a party that has not decided yet hears every
// round.
func TestDecidedMachineKeepsStepping(t *testing.T) {
	const n, tc = 7, 2
	for _, spec := range []string{"path:40", "spider:3:3"} {
		sp, err := cli.ParseSpaceSpec(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		final := core.Rounds(sp.Tree, tc) + 1
		machines := make([]sim.Machine, n)
		held := make([]*holdOutput, n)
		for p, in := range sp.SpreadInputs(n) {
			m, _, err := sp.NewMachine(n, tc, sim.PartyID(p), in)
			if err != nil {
				t.Fatal(err)
			}
			held[p] = &holdOutput{Machine: m, final: final}
			machines[p] = held[p]
		}
		if _, err := sim.Run(sim.Config{N: n, MaxCorrupt: tc, MaxRounds: final + 1}, machines); err != nil {
			t.Fatal(err)
		}
		for p, h := range held {
			if h.decided == 0 || h.decided >= final-3 {
				t.Errorf("%s party %d: decided in round %d of %d, want an early decision", spec, p, h.decided, final)
			}
			if h.changed || !h.sentAfter {
				t.Errorf("%s party %d: output changed %v, sent after deciding %v", spec, p, h.changed, h.sentAfter)
			}
		}
	}
}
