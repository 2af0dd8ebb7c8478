package adversary

import (
	"math"
	"testing"

	"treeaa/internal/realaa"
	"treeaa/internal/sim"
)

func runRealAA(t *testing.T, n, tc int, inputs []float64, iters int, adv sim.Adversary) []*realaa.Machine {
	t.Helper()
	machines := make([]sim.Machine, n)
	typed := make([]*realaa.Machine, n)
	for i := 0; i < n; i++ {
		m, err := realaa.NewMachine(realaa.Config{
			N: n, T: tc, ID: sim.PartyID(i), Tag: "real",
			Iterations: iters, StartRound: 1, Input: inputs[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = m
		typed[i] = m
	}
	if _, err := sim.Run(sim.Config{N: n, MaxCorrupt: tc, MaxRounds: 3*iters + 2, Adversary: adv}, machines); err != nil {
		t.Fatal(err)
	}
	return typed
}

func honestValueRange(machines []*realaa.Machine, corrupt map[sim.PartyID]bool, iter int) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, m := range machines {
		if corrupt[sim.PartyID(i)] {
			continue
		}
		h := m.History()
		v := h[iter]
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return hi - lo
}

func corruptSet(ids []sim.PartyID) map[sim.PartyID]bool {
	m := make(map[sim.PartyID]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func TestFirstParties(t *testing.T) {
	got := FirstParties(7, 2)
	if len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Errorf("FirstParties(7,2) = %v, want [5 6]", got)
	}
	if got := FirstParties(4, 0); len(got) != 0 {
		t.Errorf("FirstParties(4,0) = %v, want empty", got)
	}
}

func TestSilentPreservesAA(t *testing.T) {
	n, tc := 7, 2
	inputs := []float64{0, 100, 50, 25, 75, 0, 0}
	ids := FirstParties(n, tc)
	machines := runRealAA(t, n, tc, inputs, realaa.Iterations(tc, 100, 1), &Silent{IDs: ids})
	corrupt := corruptSet(ids)
	if r := honestValueRange(machines, corrupt, len(machines[0].History())-1); r > 1 {
		t.Errorf("final honest range = %v, want <= 1", r)
	}
}

func TestCrashAtAdaptive(t *testing.T) {
	n, tc := 7, 2
	inputs := []float64{0, 100, 50, 25, 75, 60, 40}
	adv := &CrashAt{IDs: []sim.PartyID{5, 6}, Rounds: []int{2, 4}}
	machines := runRealAA(t, n, tc, inputs, realaa.Iterations(tc, 100, 1), adv)
	corrupt := corruptSet([]sim.PartyID{5, 6})
	if r := honestValueRange(machines, corrupt, len(machines[0].History())-1); r > 1 {
		t.Errorf("final honest range = %v, want <= 1", r)
	}
}

func TestGradecastEquivocatorBurnedAfterOneIteration(t *testing.T) {
	n, tc := 7, 2
	inputs := []float64{0, 100, 50, 25, 75, 0, 0}
	ids := FirstParties(n, tc)
	adv := &GradecastEquivocator{IDs: ids, N: n, Tag: "real", Lo: -1e6, Hi: 1e6}
	machines := runRealAA(t, n, tc, inputs, realaa.Iterations(tc, 100, 1), adv)
	corrupt := corruptSet(ids)
	// Detection: every honest party blacklists both equivocators after
	// iteration 1.
	for i := 0; i < n; i++ {
		if corrupt[sim.PartyID(i)] {
			continue
		}
		ign := machines[i].Ignored()
		for _, id := range ids {
			if !ign[id] {
				t.Errorf("party %d did not blacklist equivocator %d", i, id)
			}
		}
	}
	if r := honestValueRange(machines, corrupt, len(machines[0].History())-1); r > 1 {
		t.Errorf("final honest range = %v, want <= 1", r)
	}
}

func TestSplitVoteCreatesDivergence(t *testing.T) {
	n, tc := 7, 2
	inputs := []float64{0, 100, 50, 25, 75, 0, 0}
	ids := FirstParties(n, tc)
	adv := &SplitVote{IDs: ids, N: n, T: tc, Tag: "real", PerIteration: 2}
	iters := realaa.Iterations(tc, 100, 1)
	machines := runRealAA(t, n, tc, inputs, iters, adv)
	corrupt := corruptSet(ids)
	// Without an adversary RealAA converges exactly in one iteration; the
	// split must keep honest values apart after iteration 1.
	if r := honestValueRange(machines, corrupt, 0); r <= 0 {
		t.Errorf("honest range after iteration 1 = %v, want > 0 (attack ineffective)", r)
	}
	if adv.Spent() != tc {
		t.Errorf("spent = %d leaders, want %d", adv.Spent(), tc)
	}
	// AA still holds at the end: 1-agreement and validity.
	final := len(machines[0].History()) - 1
	if r := honestValueRange(machines, corrupt, final); r > 1 {
		t.Errorf("final honest range = %v, want <= 1", r)
	}
	for i, m := range machines {
		if corrupt[sim.PartyID(i)] {
			continue
		}
		if v := m.Value(); v < 0 || v > 100 {
			t.Errorf("party %d output %v outside honest input range [0,100]", i, v)
		}
	}
}

func TestSplitVoteSpreadBudget(t *testing.T) {
	// Spending one leader per iteration must keep honest values divergent
	// for ~t iterations.
	n, tc := 10, 3
	inputs := []float64{0, 100, 50, 25, 75, 60, 40, 0, 0, 0}
	ids := FirstParties(n, tc)
	adv := &SplitVote{IDs: ids, N: n, T: tc, Tag: "real", PerIteration: 1}
	iters := realaa.Iterations(tc, 100, 1)
	machines := runRealAA(t, n, tc, inputs, iters, adv)
	corrupt := corruptSet(ids)
	divergent := 0
	for it := 0; it < iters; it++ {
		if honestValueRange(machines, corrupt, it) > 1e-12 {
			divergent++
		}
	}
	if divergent < 2 {
		t.Errorf("divergent iterations = %d, want >= 2 (budget spread over %d)", divergent, tc)
	}
	if r := honestValueRange(machines, corrupt, iters-1); r > 1 {
		t.Errorf("final honest range = %v, want <= 1", r)
	}
}

func TestDLPSWSplitterEnforcesHalvingFloor(t *testing.T) {
	n, tc := 7, 2
	inputs := []float64{0, 100, 0, 100, 0, 0, 0}
	ids := FirstParties(n, tc)
	iters := realaa.DLPSWIterations(100, 1)
	machines := make([]sim.Machine, n)
	typed := make([]*realaa.DLPSW, n)
	for i := 0; i < n; i++ {
		m, err := realaa.NewDLPSW(realaa.Config{
			N: n, T: tc, ID: sim.PartyID(i), Tag: "real",
			Iterations: iters, StartRound: 1, Input: inputs[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = m
		typed[i] = m
	}
	adv := &DLPSWSplitter{IDs: ids, N: n, Tag: "real"}
	if _, err := sim.Run(sim.Config{N: n, MaxCorrupt: tc, MaxRounds: iters + 2, Adversary: adv}, machines); err != nil {
		t.Fatal(err)
	}
	corrupt := corruptSet(ids)
	// The splitter keeps honest values divergent across many iterations —
	// in contrast to RealAA, where it would be burned after one.
	divergent := 0
	for it := 0; it < iters; it++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, m := range typed {
			if corrupt[sim.PartyID(i)] {
				continue
			}
			v := m.History()[it]
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if hi-lo > 1e-12 {
			divergent++
		}
	}
	if divergent < iters-1 {
		t.Errorf("divergent iterations = %d of %d, want nearly all", divergent, iters)
	}
	// Validity still holds by trimming.
	for i, m := range typed {
		if corrupt[sim.PartyID(i)] {
			continue
		}
		if v := m.Value(); v < 0 || v > 100 {
			t.Errorf("party %d output %v outside [0,100]", i, v)
		}
	}
}

func TestRandomNoisePreservesAA(t *testing.T) {
	n, tc := 7, 2
	inputs := []float64{0, 100, 50, 25, 75, 0, 0}
	ids := FirstParties(n, tc)
	for seed := int64(0); seed < 10; seed++ {
		adv := &RandomNoise{IDs: ids, N: n, Tag: "real", Seed: seed}
		machines := runRealAA(t, n, tc, inputs, realaa.Iterations(tc, 100, 1), adv)
		corrupt := corruptSet(ids)
		if r := honestValueRange(machines, corrupt, len(machines[0].History())-1); r > 1 {
			t.Errorf("seed %d: final honest range = %v, want <= 1", seed, r)
		}
		for i, m := range machines {
			if corrupt[sim.PartyID(i)] {
				continue
			}
			if v := m.Value(); v < 0 || v > 100 {
				t.Errorf("seed %d: party %d output %v outside [0,100]", seed, i, v)
			}
		}
	}
}

func TestCompose(t *testing.T) {
	n, tc := 7, 2
	inputs := []float64{0, 100, 50, 25, 75, 0, 0}
	adv := &Compose{Strategies: []sim.Adversary{
		&Silent{IDs: []sim.PartyID{5}},
		&GradecastEquivocator{IDs: []sim.PartyID{6}, N: n, Tag: "real", Lo: -10, Hi: 110},
	}}
	if got := adv.Initial(); len(got) != 2 {
		t.Fatalf("Initial = %v, want two parties", got)
	}
	machines := runRealAA(t, n, tc, inputs, realaa.Iterations(tc, 100, 1), adv)
	corrupt := corruptSet([]sim.PartyID{5, 6})
	if r := honestValueRange(machines, corrupt, len(machines[0].History())-1); r > 1 {
		t.Errorf("final honest range = %v, want <= 1", r)
	}
}
