package crashaa_test

import (
	"math"
	"testing"

	"treeaa/internal/adversary"
	"treeaa/internal/crashaa"
	"treeaa/internal/realaa"
	"treeaa/internal/sim"
)

func honestStats(outputs map[sim.PartyID]float64, crashed map[sim.PartyID]bool) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for p, v := range outputs {
		if crashed[p] {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi
}

func TestCrashFreeExactAgreementInOneRound(t *testing.T) {
	inputs := []float64{0, 100, 50, 25}
	outputs, _, err := crashaa.Run(4, inputs, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := honestStats(outputs, nil)
	if hi-lo != 0 {
		t.Errorf("crash-free range = %v, want exact agreement", hi-lo)
	}
	if lo != 43.75 { // mean of the inputs
		t.Errorf("agreed value = %v, want the mean 43.75", lo)
	}
}

func TestValidityUnderPartialCrashes(t *testing.T) {
	n := 6
	inputs := []float64{0, 100, 50, 25, 75, 10}
	adv := &crashaa.PartialCrash{
		IDs:     []sim.PartyID{4, 5},
		Rounds:  []int{1, 2},
		Cutoffs: []int{3, 2},
	}
	crashed := map[sim.PartyID]bool{4: true, 5: true}
	outputs, _, err := crashaa.Run(n, inputs, 6, adv)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := honestStats(outputs, crashed)
	if lo < 0 || hi > 100 {
		t.Errorf("validity violated: [%v, %v]", lo, hi)
	}
	// One clean iteration after the last crash collapses the range.
	if hi-lo > 1e-9 {
		t.Errorf("final range = %v, want exact agreement after crashes stop", hi-lo)
	}
}

// TestDivergencePerPartialCrash measures the Fekete crash-model structure:
// each partially-crashing round splits the survivors' views in one entry,
// and clean rounds collapse the split.
func TestDivergencePerPartialCrash(t *testing.T) {
	n := 6
	inputs := []float64{0, 100, 40, 60, 20, 80}
	adv := &crashaa.PartialCrash{
		IDs:     []sim.PartyID{4, 5},
		Rounds:  []int{1, 2}, // one partial crash in each of the first two rounds
		Cutoffs: []int{2, 2},
	}
	_, histories, err := crashaa.Run(n, inputs, 5, adv)
	if err != nil {
		t.Fatal(err)
	}
	r1 := realaa.RangeAtIteration(histories, 0)
	if r1 <= 0 {
		t.Errorf("round 1 partial crash created no divergence")
	}
	// Contraction bound: c_r/(n - received floor) of the prior range per
	// partial crash round; with one crash among >= 4 received values the
	// divergence is at most range/4.
	if r1 > 100.0/4+1e-9 {
		t.Errorf("round-1 divergence %v exceeds the c/(n-t) bound %v", r1, 100.0/4)
	}
	final := realaa.RangeAtIteration(histories, 4)
	if final > 1e-9 {
		t.Errorf("final range = %v, want 0", final)
	}
}

func TestCrashNeverFabricatesValues(t *testing.T) {
	// All inputs equal: no partial-crash schedule can move anyone.
	n := 5
	inputs := []float64{42, 42, 42, 42, 42}
	adv := &crashaa.PartialCrash{IDs: []sim.PartyID{3, 4}, Rounds: []int{1, 1}, Cutoffs: []int{1, 4}}
	outputs, _, err := crashaa.Run(n, inputs, 4, adv)
	if err != nil {
		t.Fatal(err)
	}
	for p, v := range outputs {
		if v != 42 {
			t.Errorf("party %d output %v, want 42", p, v)
		}
	}
}

func TestNewMachineErrors(t *testing.T) {
	bad := []crashaa.Config{
		{N: 0, ID: 0},
		{N: 3, ID: 5},
		{N: 3, ID: 0, Iterations: -1},
	}
	for i, cfg := range bad {
		if _, err := crashaa.NewMachine(cfg); err == nil {
			t.Errorf("config %d: want error", i)
		}
	}
}

func TestRunInputMismatch(t *testing.T) {
	if _, _, err := crashaa.Run(3, []float64{1}, 2, nil); err == nil {
		t.Error("want error for input mismatch")
	}
}

func TestZeroIterationsOutputsInput(t *testing.T) {
	outputs, _, err := crashaa.Run(3, []float64{1, 2, 3}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for p, v := range outputs {
		if v != float64(p)+1 {
			t.Errorf("party %d output %v, want own input", p, v)
		}
	}
}

// TestOmissionModel runs the mean-update protocol under *send-omission*
// faults (Fekete's third regime): omission-faulty parties keep following
// the protocol but their sends are dropped for half the network every
// round. Every delivered value is still honestly generated, so Validity is
// free; the persistent view split contracts by ~t/(n-t) per round, and the
// honest parties still converge within the budget.
func TestOmissionModel(t *testing.T) {
	n := 8
	inputs := []float64{0, 100, 40, 60, 20, 80, 50, 30}
	faulty := map[sim.PartyID]bool{6: true, 7: true}
	adv := &adversary.SendOmitter{IDs: []sim.PartyID{6, 7}, N: n, Halves: true}
	outputs, histories, err := crashaa.Run(n, inputs, 12, adv)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := honestStats(outputs, faulty)
	if lo < 0 || hi > 100 {
		t.Errorf("validity violated: [%v, %v]", lo, hi)
	}
	if hi-lo > 1 {
		t.Errorf("final honest range = %v, want <= 1 within budget", hi-lo)
	}
	// The persistent split must actually bite: at least the first round
	// shows divergence (unlike the crash model, omitters never stop).
	if realaa.RangeAtIteration(restrict(histories, faulty), 0) <= 0 {
		t.Error("omission split produced no divergence at all")
	}
}

func TestOmissionRandomDrops(t *testing.T) {
	n := 8
	inputs := []float64{0, 100, 40, 60, 20, 80, 50, 30}
	faulty := map[sim.PartyID]bool{6: true, 7: true}
	for seed := int64(0); seed < 10; seed++ {
		adv := &adversary.SendOmitter{IDs: []sim.PartyID{6, 7}, N: n, Drop: 0.5, Seed: seed}
		outputs, _, err := crashaa.Run(n, inputs, 14, adv)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		lo, hi := honestStats(outputs, faulty)
		if lo < 0 || hi > 100 {
			t.Errorf("seed %d: validity violated: [%v, %v]", seed, lo, hi)
		}
		if hi-lo > 1 {
			t.Errorf("seed %d: final honest range = %v", seed, hi-lo)
		}
	}
}

// restrict drops faulty parties' histories.
func restrict(histories map[sim.PartyID][]float64, faulty map[sim.PartyID]bool) map[sim.PartyID][]float64 {
	out := make(map[sim.PartyID][]float64, len(histories))
	for p, h := range histories {
		if !faulty[p] {
			out[p] = h
		}
	}
	return out
}
