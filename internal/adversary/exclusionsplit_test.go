package adversary

import (
	"fmt"
	"testing"

	"treeaa/internal/realaa"
	"treeaa/internal/sim"
)

// TestFindingFBExclusionSplit pins Finding F-B (EXPERIMENTS, open): at n = 7,
// t = 2 the ExclusionSplit script leaves X excluded at three honest parties
// and included at two for the rest of the execution, the honest range halves
// per iteration and no faster, and the Theorem 3 schedule (+2 margin) ends
// with the honest outputs further than eps = 1 apart. The test passes by
// observing the violation — it asserts the asymmetric Ignored() sets and
// spread > eps — so it flips when the exclusion rule is repaired.
func TestFindingFBExclusionSplit(t *testing.T) {
	n, tc := 7, 2
	x, s := sim.PartyID(5), sim.PartyID(6)
	corrupt := corruptSet([]sim.PartyID{x, s})
	for _, d := range []float64{1e4, 1e6, 1e9} {
		t.Run(fmt.Sprintf("D=%g", d), func(t *testing.T) {
			inputs := make([]float64, n)
			for i := range inputs {
				inputs[i] = d * float64(i%5) / 4 // honest inputs evenly spread over [0, D]
			}
			iters := realaa.Iterations(tc, d, 1)
			adv := &ExclusionSplit{X: x, S: s, N: n, T: tc, Tag: "real"}
			machines := runRealAA(t, n, tc, inputs, iters, adv)

			histories := make(map[sim.PartyID][]float64)
			both, onlyS := 0, 0
			for i, m := range machines {
				if corrupt[sim.PartyID(i)] {
					continue
				}
				histories[sim.PartyID(i)] = m.History()
				ign := m.Ignored()
				switch {
				case len(ign) == 2 && ign[x] && ign[s]:
					both++
				case len(ign) == 1 && ign[s]:
					onlyS++
				default:
					t.Errorf("party %d ignores %v, want {X,S} or {S}", i, ign)
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
				t.Errorf("final spread %v <= eps: Finding F-B no longer reproduces — "+
					"if the exclusion rule was repaired, close the finding and cap realaa.Iterations for t >= 2", final)
			}
		})
	}
}
