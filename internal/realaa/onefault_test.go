package realaa_test

import (
	"fmt"
	"math"
	"testing"

	"treeaa/internal/adversary"
	"treeaa/internal/realaa"
	"treeaa/internal/sim"
)

// theorem3Iterations is the paper's count, ceil((20/9)·log2(δ)/log2log2(δ))
// + 2: realaa.Iterations for t >= 2 before Finding F-B, and
// realaa.Theorem3Iterations now.
func theorem3Iterations(d, eps float64) int {
	ratio := d / eps
	if ratio <= 1 {
		return 0
	}
	l := math.Log2(ratio)
	ll := math.Log2(l)
	if ll < 1 {
		ll = 1
	}
	r := int(math.Ceil(20.0 / 9.0 * l / ll))
	if r < 1 {
		r = 1
	}
	return r + 2
}

// TestScheduleByTIterations pins the schedule as a function of t: t+1 for
// t <= 1, for every t >= 2 the longer of the Theorem 3 count and the DLPSW
// halving count ceil(log2(D/eps)), 0 whenever D/eps <= 1.
func TestScheduleByTIterations(t *testing.T) {
	ratios := []float64{2, 3, 10, 100, 1e3, 1e4, 1e6, 1e9, 1e12}
	for _, ratio := range ratios {
		if got, want := realaa.Theorem3Iterations(ratio, 1), theorem3Iterations(ratio, 1); got != want {
			t.Errorf("Theorem3Iterations(%g, 1) = %d, want %d", ratio, got, want)
		}
		halvings := int(math.Ceil(math.Log2(ratio)))
		for _, tc := range []int{2, 3, 5, 10, 33} {
			if got, want := realaa.Iterations(tc, ratio, 1), max(theorem3Iterations(ratio, 1), halvings); got != want {
				t.Errorf("Iterations(t=%d, %g, 1) = %d, want max(Theorem 3 %d, log2 %d)",
					tc, ratio, got, theorem3Iterations(ratio, 1), halvings)
			}
		}
		for tc := 0; tc <= 1; tc++ {
			if got := realaa.Iterations(tc, ratio, 1); got != tc+1 {
				t.Errorf("Iterations(t=%d, %g, 1) = %d, want %d", tc, ratio, got, tc+1)
			}
			if got := realaa.Iterations(tc, 7*ratio, 7); got != tc+1 {
				t.Errorf("Iterations(t=%d, %g, 7) = %d, want %d", tc, 7*ratio, got, tc+1)
			}
		}
	}
	for _, tc := range []int{0, 1, 2, 5} {
		for _, d := range []float64{0, 0.5, 1} {
			if got := realaa.Iterations(tc, d, 1); got != 0 {
				t.Errorf("Iterations(t=%d, %g, 1) = %d, want 0", tc, d, got)
			}
		}
	}
}

// oneFaultStrategies is every library strategy (and the self-accusing
// ExclusionSplit script) with party c as the one corrupted party.
func oneFaultStrategies(n int, c sim.PartyID, d float64) map[string]func() sim.Adversary {
	ids := []sim.PartyID{c}
	out := map[string]func() sim.Adversary{
		"silent": func() sim.Adversary { return &adversary.Silent{IDs: ids} },
		"equivocator": func() sim.Adversary {
			return &adversary.GradecastEquivocator{IDs: ids, N: n, Tag: "real", Lo: -d, Hi: 2 * d}
		},
		"splitvote": func() sim.Adversary {
			return &adversary.SplitVote{IDs: ids, N: n, T: 1, Tag: "real", PerIteration: 1}
		},
		"halfburn": func() sim.Adversary { return &adversary.HalfBurn{IDs: ids, N: n, T: 1, Tag: "real"} },
		"noise": func() sim.Adversary {
			return &adversary.RandomNoise{IDs: ids, N: n, Tag: "real", Seed: int64(n), MaxVal: 100}
		},
		"replay": func() sim.Adversary { return &adversary.Replay{IDs: ids, Delay: 3} },
		"frame":  func() sim.Adversary { return &adversary.FrameHonest{IDs: ids, N: n, Tag: "real", Fake: d / 3} },
		"exclusionsplit-self": func() sim.Adversary {
			return &adversary.ExclusionSplit{IDs: []sim.PartyID{c}, X: c, S: c, N: n, T: 1, Tag: "real"}
		},
	}
	// Rounds 1-3 corrupt the party in the middle of iteration 1, 4-6 in
	// iteration 2.
	for r := 1; r <= 6; r++ {
		out[fmt.Sprintf("crash@%d", r)] = func() sim.Adversary {
			return &adversary.CrashAt{IDs: ids, Rounds: []int{r}}
		}
	}
	return out
}

// runCollapse runs RealAA on the t-aware schedule and returns the machines.
func runCollapse(t *testing.T, n, tc int, inputs []float64, d float64, adv sim.Adversary) []*realaa.Machine {
	t.Helper()
	iters := realaa.Iterations(tc, d, 1)
	machines := make([]sim.Machine, n)
	typed := make([]*realaa.Machine, n)
	for i := range machines {
		m, err := realaa.NewMachine(realaa.Config{N: n, T: tc, ID: sim.PartyID(i), Tag: "real",
			Iterations: iters, StartRound: 1, Input: inputs[i]})
		if err != nil {
			t.Fatal(err)
		}
		machines[i], typed[i] = m, m
	}
	res, err := sim.Run(sim.Config{N: n, MaxCorrupt: tc, MaxRounds: 3*iters + 2, Adversary: adv}, machines)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3*(tc+1) + 1; res.Rounds != want {
		t.Fatalf("execution used %d rounds, want %d (t+1 iterations and the processing step)", res.Rounds, want)
	}
	return typed
}

// assertCollapsed checks the one-fault collapse lemma's conclusion: every
// honest output is the same float64 (spread exactly 0, not <= eps) and lies
// in the honest inputs' range.
func assertCollapsed(t *testing.T, name string, machines []*realaa.Machine, inputs []float64, corrupt sim.PartyID) {
	t.Helper()
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, v := range inputs {
		if sim.PartyID(i) != corrupt {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	}
	first, seen := 0.0, false
	for i, m := range machines {
		if sim.PartyID(i) == corrupt {
			continue
		}
		out, done := m.Output()
		if !done {
			t.Fatalf("%s: party %d not done", name, i)
		}
		v := out.(float64)
		if !seen {
			first, seen = v, true
		}
		if v != first {
			t.Errorf("%s: party %d outputs %v, party before it %v: not exactly equal", name, i, v, first)
		}
		if v < lo || v > hi {
			t.Errorf("%s: party %d output %v outside the honest range [%v, %v]", name, i, v, lo, hi)
		}
	}
}

// TestOneFaultCollapse is the exactness test of the one-fault collapse
// lemma (DESIGN §3): with t = 1, whatever the one corrupted party does, all
// honest values are equal after t+1 = 2 iterations.
func TestOneFaultCollapse(t *testing.T) {
	// diverged counts, per strategy, the cells whose honest values still
	// differed after iteration 1: the second iteration must be doing work.
	diverged := map[string]int{}
	for _, n := range []int{4, 5, 6, 7} {
		c := sim.PartyID(n - 1)
		for _, d := range []float64{2, 1e3, 1e6, 1e12} {
			shapes := map[string][]float64{"spread": make([]float64, n), "skewed": make([]float64, n)}
			for i := 0; i < n; i++ {
				shapes["spread"][i] = d * float64(i) / float64(n-1)
				shapes["skewed"][i] = d * float64((i*37+13)%101) / 101
			}
			shapes["skewed"][0], shapes["skewed"][1] = 0, d // honest range spans all of [0, D]
			for shape, inputs := range shapes {
				for strategy, mk := range oneFaultStrategies(n, c, d) {
					name := fmt.Sprintf("n=%d/D=%g/%s/%s", n, d, shape, strategy)
					machines := runCollapse(t, n, 1, inputs, d, mk())
					assertCollapsed(t, name, machines, inputs, c)
					for i := 1; i < n-1; i++ {
						if machines[i].History()[0] != machines[0].History()[0] {
							diverged[strategy]++
							break
						}
					}
				}
			}
		}
	}
	for _, strategy := range []string{"splitvote", "halfburn", "exclusionsplit-self"} {
		if diverged[strategy] == 0 {
			t.Errorf("%s never left the honest values apart after iteration 1: the test does not exercise iteration 2", strategy)
		}
	}
	t.Logf("cells still divergent after iteration 1, by strategy: %v", diverged)
}

// TestOneFaultCollapseZeroFaults: with t = 0 one iteration suffices — every
// party accepts the same n values.
func TestOneFaultCollapseZeroFaults(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7} {
		for _, d := range []float64{2, 1e3, 1e12} {
			inputs := make([]float64, n)
			for i := range inputs {
				inputs[i] = d * float64((i*37+13)%101) / 101
			}
			machines := runCollapse(t, n, 0, inputs, d, nil)
			assertCollapsed(t, fmt.Sprintf("n=%d/D=%g", n, d), machines, inputs, -1)
		}
	}
}
