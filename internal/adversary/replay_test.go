package adversary

import (
	"testing"

	"treeaa/internal/realaa"
	"treeaa/internal/sim"
)

func TestReplayDoesNotBreakAA(t *testing.T) {
	n, tc := 7, 2
	inputs := []float64{0, 100, 50, 25, 75, 60, 40}
	ids := FirstParties(n, tc)
	corrupt := corruptSet(ids)
	for _, delay := range []int{1, 3, 6} {
		adv := &Replay{IDs: ids, Delay: delay}
		machines := runRealAA(t, n, tc, inputs, realaa.Iterations(tc, 100, 1), adv)
		if r := honestValueRange(machines, corrupt, len(machines[0].History())-1); r > 1 {
			t.Errorf("delay %d: final honest range = %v, want <= 1", delay, r)
		}
		for i, m := range machines {
			if corrupt[sim.PartyID(i)] {
				continue
			}
			if v := m.Value(); v < 0 || v > 100 {
				t.Errorf("delay %d: party %d output %v outside [0,100]", delay, i, v)
			}
		}
	}
}

// TestFrameHonestCannotBlacklistHonestLeaders is the key gradecast
// robustness property: t corrupted parties fabricating echoes and votes for
// honest leaders can never push an honest leader's grade below 2 at any
// honest party.
func TestFrameHonestCannotBlacklistHonestLeaders(t *testing.T) {
	n, tc := 7, 2
	inputs := []float64{0, 100, 50, 25, 75, 0, 0}
	ids := FirstParties(n, tc)
	corrupt := corruptSet(ids)
	adv := &FrameHonest{IDs: ids, N: n, Tag: "real", Fake: 12345}
	machines := runRealAA(t, n, tc, inputs, realaa.Iterations(tc, 100, 1), adv)
	for i, m := range machines {
		if corrupt[sim.PartyID(i)] {
			continue
		}
		ign := m.Ignored()
		for leader := sim.PartyID(0); int(leader) < n; leader++ {
			if corrupt[leader] {
				continue
			}
			if ign[leader] {
				t.Errorf("party %d blacklisted honest leader %d under framing", i, leader)
			}
		}
	}
	// AA still holds, and the fabricated value never enters honest outputs.
	if r := honestValueRange(machines, corrupt, len(machines[0].History())-1); r > 1 {
		t.Errorf("final honest range = %v, want <= 1", r)
	}
	for i, m := range machines {
		if corrupt[sim.PartyID(i)] {
			continue
		}
		if v := m.Value(); v < 0 || v > 100 {
			t.Errorf("party %d output %v outside honest range (frame leaked?)", i, v)
		}
	}
}
