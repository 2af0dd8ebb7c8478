package adversary

import (
	"fmt"
	"testing"

	"treeaa/internal/realaa"
	"treeaa/internal/sim"
)

// TestHalfBurnSustainsDivergenceButConverges is the critical soundness
// probe: HalfBurn keeps t leaders accepted at group A and blacklisted
// elsewhere from iteration 2 on, the strongest sustained inconsistency
// gradecast permits. The protocol must still reach eps-agreement within the
// fixed schedule (realaa.Iterations) — trimming caps the window asymmetry —
// even though divergence lasts far longer than under the one-shot attacks.
func TestHalfBurnSustainsDivergenceButConverges(t *testing.T) {
	for _, cfg := range []struct {
		n, t int
		d    float64
	}{
		{7, 2, 1e4}, {10, 3, 1e6}, {16, 5, 1e6},
	} {
		name := fmt.Sprintf("n=%d_t=%d_D=%g", cfg.n, cfg.t, cfg.d)
		t.Run(name, func(t *testing.T) {
			inputs := make([]float64, cfg.n)
			for i := range inputs {
				inputs[i] = cfg.d * float64((i*37+13)%101) / 101
			}
			ids := FirstParties(cfg.n, cfg.t)
			corrupt := corruptSet(ids)
			adv := &HalfBurn{IDs: ids, N: cfg.n, T: cfg.t, Tag: "real"}
			iters := realaa.Iterations(cfg.t, cfg.d, 1)
			machines := runRealAA(t, cfg.n, cfg.t, inputs, iters, adv)
			histories := make(map[sim.PartyID][]float64)
			for i, m := range machines {
				if !corrupt[sim.PartyID(i)] {
					histories[sim.PartyID(i)] = m.History()
				}
			}
			divergent := realaa.DivergentIterations(histories, 1e-12)
			final := realaa.RangeAtIteration(histories, iters-1)
			t.Logf("%s: divergent %d/%d iterations, final range %.6g", name, divergent, iters, final)
			if final > 1 {
				t.Errorf("eps-agreement violated within the schedule: final range %v > 1 "+
					"(HalfBurn defeats the implementation)", final)
			}
			// Validity must hold regardless.
			for i, m := range machines {
				if corrupt[sim.PartyID(i)] {
					continue
				}
				if v := m.Value(); v < -1e-9 || v > cfg.d+1e-9 {
					t.Errorf("party %d output %v outside honest range", i, v)
				}
			}
		})
	}
}
