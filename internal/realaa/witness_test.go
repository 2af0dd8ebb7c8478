package realaa_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"treeaa/internal/adversary"
	"treeaa/internal/realaa"
	"treeaa/internal/sim"
)

// TestWitnessSound is the ε-witness's property test (DESIGN §3). Over many
// seeds — random inputs and diameters, (n, t) from (7, 2) to (16, 5) — it
// runs RealAA(1) with Config.Eps = 1 under SplitVote, HalfBurn,
// ExclusionSplit (every role choice and start iteration the seed draws) and
// random noise, and wherever an honest party witnessed at iteration k it
// asserts the lemma's two conclusions: the honest values entering k span at
// most eps, and every honest output lies within eps of that party's. The
// execution stops when the last honest party has decided, so every output
// checked is one an early decision produced or waited for.
func TestWitnessSound(t *testing.T) {
	const eps = 1.0
	seeds := 150
	if testing.Short() {
		seeds = 40
	}
	strategies := []string{"splitvote", "halfburn", "exclusionsplit", "noise"}
	witnessed := map[string]int{}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		nt := [][2]int{{7, 2}, {8, 2}, {10, 3}, {16, 5}}[rng.Intn(4)]
		n, tc := nt[0], nt[1]
		d := math.Pow(10, 1+5*rng.Float64())
		inputs := make([]float64, n)
		for i := range inputs {
			inputs[i] = math.Round(d * rng.Float64())
		}
		for _, name := range strategies {
			adv := strategy(name, rng, seed, n, tc, d)
			t.Run(fmt.Sprintf("seed=%d/%s", seed, name), func(t *testing.T) {
				if checkWitness(t, n, tc, inputs, d, eps, adv) {
					witnessed[name]++
				}
			})
		}
	}
	t.Logf("executions with an early decision, per strategy: %v", witnessed)
	for _, name := range strategies {
		if witnessed[name] == 0 {
			t.Errorf("%s: no execution decided early — the property was never exercised", name)
		}
	}
}

// strategy builds the named strategy of the property tests' pool over the
// first tc parties, drawing its free parameters from rng.
func strategy(name string, rng *rand.Rand, seed int64, n, tc int, d float64) sim.Adversary {
	ids := adversary.FirstParties(n, tc)
	switch name {
	case "splitvote":
		return &adversary.SplitVote{IDs: ids, N: n, T: tc, Tag: "real", PerIteration: 1 + rng.Intn(2)}
	case "halfburn":
		return &adversary.HalfBurn{IDs: ids, N: n, T: tc, Tag: "real"}
	case "exclusionsplit":
		return &adversary.ExclusionSplit{IDs: ids, X: ids[rng.Intn(tc)], S: ids[rng.Intn(tc)],
			N: n, T: tc, Tag: "real", StartIteration: 1 + rng.Intn(3)}
	case "noise":
		return &adversary.RandomNoise{IDs: ids, N: n, Tag: "real", Seed: seed, MaxVal: int(2 * d)}
	case "frame":
		return &adversary.FrameHonest{IDs: ids, N: n, Tag: "real", Fake: math.Round(d * rng.Float64())}
	case "silent":
		return &adversary.Silent{IDs: ids}
	case "crash":
		rounds := make([]int, len(ids))
		for i := range rounds {
			rounds[i] = 2 + rng.Intn(6)
		}
		return &adversary.CrashAt{IDs: ids, Rounds: rounds}
	}
	panic("unknown strategy " + name)
}

// runReal runs RealAA(eps) with the given inputs on D-close values under
// adv and returns the result beside every party's machine.
func runReal(t *testing.T, n, tc int, inputs []float64, d, eps float64, adv sim.Adversary) (*sim.Result, []*realaa.Machine) {
	t.Helper()
	iters := realaa.Iterations(tc, d, eps)
	machines := make([]sim.Machine, n)
	typed := make([]*realaa.Machine, n)
	for i := range machines {
		m, err := realaa.NewMachine(realaa.Config{N: n, T: tc, ID: sim.PartyID(i), Tag: "real",
			Iterations: iters, StartRound: 1, Input: inputs[i], Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		machines[i], typed[i] = m, m
	}
	res, err := sim.Run(sim.Config{N: n, MaxCorrupt: tc, MaxRounds: 3*iters + 2, Adversary: adv}, machines)
	if err != nil {
		t.Fatal(err)
	}
	return res, typed
}

// checkWitness runs one execution and checks every honest witness in it;
// it reports whether any honest party decided before the schedule's end.
func checkWitness(t *testing.T, n, tc int, inputs []float64, d, eps float64, adv sim.Adversary) bool {
	t.Helper()
	iters := realaa.Iterations(tc, d, eps)
	res, typed := runReal(t, n, tc, inputs, d, eps, adv)
	var honest []sim.PartyID
	for p := 0; p < n; p++ {
		if !res.Corrupted[sim.PartyID(p)] {
			honest = append(honest, sim.PartyID(p))
		}
	}
	// entering returns the honest values gradecast in iteration k: the
	// inputs for k = 1, else each party's value after iteration k-1.
	entering := func(k int) (lo, hi float64) {
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, p := range honest {
			v := inputs[p]
			if k > 1 {
				v = typed[p].History()[k-2]
			}
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		return lo, hi
	}
	early := false
	for _, p := range honest {
		k := typed[p].DecidedIteration()
		if typed[p].DecidedBy() != "witness" {
			continue // the echo rule promises more: TestIterationOneRulesExact
		}
		early = early || k < iters
		if lo, hi := entering(k); hi-lo > eps {
			t.Errorf("party %d witnessed iteration %d, but the honest values entering it span [%g, %g]", p, k, lo, hi)
		}
		mine := res.Outputs[p].(float64)
		for _, q := range honest {
			if v := res.Outputs[q].(float64); math.Abs(v-mine) > eps {
				t.Errorf("party %d decided %g at iteration %d; party %d output %g, further than eps", p, mine, k, q, v)
			}
		}
	}
	return early
}
