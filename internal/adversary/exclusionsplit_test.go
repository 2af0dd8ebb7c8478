package adversary

import (
	"fmt"
	"testing"

	"treeaa/internal/gradecast"
	"treeaa/internal/realaa"
	"treeaa/internal/sim"
)

// runExclusionSplit runs RealAA at n = 7, t = 2 for iters iterations under
// the F-B script (X = p5, S = p6) on honest inputs evenly spread over
// [0, D], and returns the honest histories and exclusion sets.
func runExclusionSplit(t *testing.T, d float64, iters int) (map[sim.PartyID][]float64, map[sim.PartyID]map[sim.PartyID]bool) {
	t.Helper()
	n, tc := 7, 2
	ids := []sim.PartyID{5, 6}
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = d * float64(i%5) / 4
	}
	adv := &ExclusionSplit{IDs: ids, X: 5, S: 6, N: n, T: tc, Tag: "real"}
	machines := runRealAA(t, n, tc, inputs, iters, adv)
	corrupt := corruptSet(ids)
	histories := make(map[sim.PartyID][]float64)
	ignored := make(map[sim.PartyID]map[sim.PartyID]bool)
	for i, m := range machines {
		if !corrupt[sim.PartyID(i)] {
			histories[sim.PartyID(i)] = m.History()
			ignored[sim.PartyID(i)] = m.Ignored()
		}
	}
	return histories, ignored
}

// TestFindingFBExclusionSplit pins Finding F-B (EXPERIMENTS): at n = 7,
// t = 2 the ExclusionSplit script leaves X excluded at three honest parties
// and included at two for the rest of the execution, the honest range halves
// per iteration and no faster, and the Theorem 3 count (+2 margin) ends with
// the honest outputs further than eps = 1 apart. The test passes by
// observing the violation — it asserts the asymmetric Ignored() sets and
// spread > eps — so it flips when the exclusion rule is repaired.
func TestFindingFBExclusionSplit(t *testing.T) {
	x, s := sim.PartyID(5), sim.PartyID(6)
	for _, d := range []float64{1e4, 1e6, 1e9} {
		t.Run(fmt.Sprintf("D=%g", d), func(t *testing.T) {
			iters := realaa.Theorem3Iterations(d, 1)
			histories, ignored := runExclusionSplit(t, d, iters)
			both, onlyS := 0, 0
			for p, ign := range ignored {
				switch {
				case len(ign) == 2 && ign[x] && ign[s]:
					both++
				case len(ign) == 1 && ign[s]:
					onlyS++
				default:
					t.Errorf("party %d ignores %v, want {X,S} or {S}", p, ign)
				}
			}
			if both != 3 || onlyS != 2 {
				t.Errorf("exclusion sets: %d parties ignore {X,S} and %d ignore {S}, want 3 and 2", both, onlyS)
			}
			// From iteration 3 on the range exactly halves: it never collapses.
			for it := 3; it < iters; it++ {
				prev, cur := realaa.RangeAtIteration(histories, it-1), realaa.RangeAtIteration(histories, it)
				if cur <= 0 || cur < 0.49*prev || cur > 0.51*prev {
					t.Errorf("iteration %d: range %v after %v, want half", it+1, cur, prev)
				}
			}
			final := realaa.RangeAtIteration(histories, iters-1)
			t.Logf("D=%g: %d iterations, final honest spread %.4g", d, iters, final)
			if final <= 1 {
				t.Errorf("final spread %v <= eps: Finding F-B no longer reproduces at the Theorem 3 count — "+
					"if the exclusion rule was repaired, close the finding and give realaa.Iterations that count back", final)
			}
		})
	}
}

// TestFindingFBShippedSchedule is F-B's other half: the same
// script against the shipped t >= 2 schedule, realaa.Iterations, which is
// at least the DLPSW halving count — the asymmetry persists, and the honest
// spread still ends within eps = 1.
func TestFindingFBShippedSchedule(t *testing.T) {
	for _, d := range []float64{1e4, 1e6, 1e9} {
		iters := realaa.Iterations(2, d, 1)
		if iters < realaa.DLPSWIterations(d, 1) {
			t.Errorf("D=%g: schedule %d iterations, below the DLPSW count %d", d, iters, realaa.DLPSWIterations(d, 1))
		}
		histories, _ := runExclusionSplit(t, d, iters)
		if final := realaa.RangeAtIteration(histories, iters-1); final > 1 {
			t.Errorf("D=%g: final honest spread %v after %d iterations, want <= eps = 1", d, final, iters)
		}
	}
}

// TestExclusionSplitStartIteration: a script started at protocol iteration
// k stages on iteration k's live honest values and speaks in iteration k's
// gradecast instances; before it the share sends nothing.
func TestExclusionSplitStartIteration(t *testing.T) {
	const n, tc, k = 7, 2, 3
	adv := &ExclusionSplit{IDs: []sim.PartyID{5, 6}, X: 5, S: 6, N: n, T: tc, Tag: "real", StartIteration: k}
	sends := func(iter int) []sim.Message {
		var out []sim.Message
		for p := 0; p < n-tc; p++ {
			out = append(out, sim.Message{From: sim.PartyID(p), To: sim.Broadcast,
				Payload: &gradecast.SendMsg{Tag: "real", Iter: iter, Val: float64(10 * p)}})
		}
		return out
	}
	for r := 1; r <= 3*(k-1); r++ {
		if msgs, _ := adv.Step(r, sends((r-1)/3+1), nil); len(msgs) != 0 {
			t.Fatalf("round %d, before the start iteration: %d messages", r, len(msgs))
		}
	}
	msgs, _ := adv.Step(3*(k-1)+1, sends(k), nil)
	if len(msgs) == 0 {
		t.Fatal("no staging at the start iteration")
	}
	for _, m := range msgs {
		if p := m.Payload.(*gradecast.SendMsg); p.Iter != k {
			t.Errorf("staged %+v, want protocol iteration %d", p, k)
		}
	}
}
