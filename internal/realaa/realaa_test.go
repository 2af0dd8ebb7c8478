package realaa

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"treeaa/internal/gradecast"
	"treeaa/internal/sim"
)

// Payload constructors shared by the scripted adversaries below.
func gradecastSend(tag string, iter int, v float64) any {
	return gradecast.SendMsg{Tag: tag, Iter: iter, Val: v}
}

func gradecastEcho(tag string, iter int, vals map[sim.PartyID]float64) any {
	return gradecast.EchoMsg{Tag: tag, Iter: iter, Vals: gradecast.CopyVals(vals)}
}

func gradecastVote(tag string, iter int, vals map[sim.PartyID]float64) any {
	return gradecast.VoteMsg{Tag: tag, Iter: iter, Vals: gradecast.CopyVals(vals)}
}

func honestRange(inputs []float64, corrupt map[sim.PartyID]bool) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i, v := range inputs {
		if corrupt[sim.PartyID(i)] {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

func checkAA(t *testing.T, inputs []float64, corrupt map[sim.PartyID]bool, outputs map[sim.PartyID]float64, eps float64) {
	t.Helper()
	lo, hi := honestRange(inputs, corrupt)
	var vals []float64
	for p, v := range outputs {
		if corrupt[p] {
			continue
		}
		if v < lo-1e-9 || v > hi+1e-9 {
			t.Errorf("validity violated: party %d output %v outside [%v,%v]", p, v, lo, hi)
		}
		vals = append(vals, v)
	}
	for i := range vals {
		for j := range vals {
			if d := math.Abs(vals[i] - vals[j]); d > eps+1e-9 {
				t.Errorf("%v-agreement violated: outputs %v and %v differ by %v", eps, vals[i], vals[j], d)
			}
		}
	}
}

func TestIterationsFormula(t *testing.T) {
	tests := []struct {
		d, eps float64
	}{
		{1, 1}, {0.5, 1}, {2, 1}, {3, 1}, {10, 1}, {100, 1},
		{1e6, 1}, {1e6, 0.001}, {16, 0.5},
	}
	for _, tc := range tests {
		r := Iterations(2, tc.d, tc.eps)
		ratio := tc.d / tc.eps
		if ratio <= 1 {
			if r != 0 {
				t.Errorf("Iterations(%v,%v) = %d, want 0", tc.d, tc.eps, r)
			}
			continue
		}
		if r < 1 {
			t.Fatalf("Iterations(%v,%v) = %d", tc.d, tc.eps, r)
		}
		// The proof's requirement: R^R >= D/eps.
		if math.Pow(float64(r), float64(r)) < ratio {
			t.Errorf("Iterations(%v,%v) = %d: R^R = %v < ratio %v",
				tc.d, tc.eps, r, math.Pow(float64(r), float64(r)), ratio)
		}
	}
	for _, tc := range []int{0, 1, 2, 5} {
		if got, want := Rounds(tc, 100, 1), 3*Iterations(tc, 100, 1); got != want {
			t.Errorf("t=%d: Rounds = %d, want %d", tc, got, want)
		}
	}
}

func TestIterationsPanicsOnBadEps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for eps <= 0")
		}
	}()
	Iterations(1, 1, 0)
}

func TestClosestInt(t *testing.T) {
	tests := []struct {
		j    float64
		want int
	}{
		{0, 0}, {0.49, 0}, {0.5, 1}, {0.51, 1}, {1, 1},
		{2.5, 3}, {7.49, 7}, {3.999, 4}, {10, 10},
	}
	for _, tc := range tests {
		if got := ClosestInt(tc.j); got != tc.want {
			t.Errorf("ClosestInt(%v) = %d, want %d", tc.j, got, tc.want)
		}
	}
}

// TestRemark1 checks: j in [imin, imax] (integers) implies closestInt(j) in
// [imin, imax].
func TestRemark1(t *testing.T) {
	f := func(a, b int16, frac float64) bool {
		lo, hi := int(a)%100, int(b)%100
		if lo > hi {
			lo, hi = hi, lo
		}
		frac = math.Abs(frac) - math.Floor(math.Abs(frac)) // [0,1)
		j := float64(lo) + frac*float64(hi-lo)
		ci := ClosestInt(j)
		return ci >= lo && ci <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestRemark2 checks: |j - j'| <= 1 implies |closestInt(j)-closestInt(j')| <= 1.
func TestRemark2(t *testing.T) {
	f := func(base float64, delta float64) bool {
		base = math.Mod(base, 1e6)
		delta = math.Mod(math.Abs(delta), 1.0)
		a, b := ClosestInt(base), ClosestInt(base+delta)
		diff := a - b
		if diff < 0 {
			diff = -diff
		}
		return diff <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestRealAAHonestConvergesInstantly(t *testing.T) {
	// With no Byzantine interference all parties see identical multisets, so
	// one iteration suffices to make all values equal.
	inputs := []float64{0, 10, 3, 7}
	outputs, histories, err := RunReal(4, 1, inputs, 10, 1, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkAA(t, inputs, nil, outputs, 0) // exact agreement expected
	for p, h := range histories {
		if len(h) < 1 {
			t.Fatalf("party %d history empty", p)
		}
		if h[0] != h[len(h)-1] {
			t.Errorf("party %d value changed after iteration 1: %v", p, h)
		}
	}
}

func TestRealAAOutputsWithinBudget(t *testing.T) {
	n, tc := 7, 2
	inputs := []float64{0, 100, 50, 25, 75, 10, 90}
	outputs, _, err := RunReal(n, tc, inputs, 100, 1, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outputs) != n {
		t.Fatalf("outputs from %d parties, want %d", len(outputs), n)
	}
	checkAA(t, inputs, nil, outputs, 1)
}

// equivocator drives corrupted parties to send different values to
// different halves in the gradecast send phase of every iteration and
// otherwise mimic honest behavior poorly (silence).
type equivocator struct {
	ids  []sim.PartyID
	n    int
	tag  string
	lo   float64
	hi   float64
	once bool // equivocate only in iteration 1
}

func (a *equivocator) Initial() []sim.PartyID { return a.ids }

func (a *equivocator) Step(r int, honestOut []sim.Message, _ map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	// RealAA send phases are relative rounds 1, 4, 7, ...
	if (r-1)%3 != 0 {
		return nil, nil
	}
	iter := (r-1)/3 + 1
	if a.once && iter > 1 {
		return nil, nil
	}
	var msgs []sim.Message
	for _, from := range a.ids {
		for to := 0; to < a.n; to++ {
			v := a.lo
			if to >= a.n/2 {
				v = a.hi
			}
			msgs = append(msgs, sim.Message{From: from, To: sim.PartyID(to), Payload: sendPayload(a.tag, iter, v)})
		}
	}
	return msgs, nil
}

func sendPayload(tag string, iter int, v float64) any {
	return gradecastSend(tag, iter, v)
}

func TestRealAAUnderEquivocation(t *testing.T) {
	n, tc := 7, 2
	inputs := []float64{0, 100, 0, 100, 0, 100, 0}
	corrupt := map[sim.PartyID]bool{5: true, 6: true}
	adv := &equivocator{ids: []sim.PartyID{5, 6}, n: n, tag: "real", lo: -1000, hi: 1000}
	outputs, _, err := RunReal(n, tc, inputs, 100, 1, true, adv)
	if err != nil {
		t.Fatal(err)
	}
	checkAA(t, inputs, corrupt, outputs, 1)
}

func TestRealAAIgnoresDetectedEquivocator(t *testing.T) {
	n, tc := 4, 1
	inputs := []float64{0, 100, 50, 0}
	adv := &equivocator{ids: []sim.PartyID{3}, n: n, tag: "real", lo: -500, hi: 500, once: true}
	machines := make([]sim.Machine, n)
	iters := Iterations(tc, 100, 1)
	for i := 0; i < n; i++ {
		m, err := NewMachine(Config{N: n, T: tc, ID: sim.PartyID(i), Tag: "real", Iterations: iters, StartRound: 1, Input: inputs[i]})
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = m
	}
	_, err := sim.Run(sim.Config{N: n, MaxCorrupt: tc, MaxRounds: 3*iters + 2, Adversary: adv}, machines)
	if err != nil {
		t.Fatal(err)
	}
	// Party 3 equivocated in iteration 1 (half saw -500, half 500): every
	// honest party must have blacklisted it by the end.
	for i := 0; i < 3; i++ {
		if !machines[i].(*Machine).Ignored()[3] {
			t.Errorf("party %d did not blacklist the equivocator", i)
		}
	}
}

func TestDLPSWIterations(t *testing.T) {
	tests := []struct {
		d, eps float64
		want   int
	}{
		{1, 1, 0}, {2, 1, 1}, {4, 1, 2}, {100, 1, 7}, {0.5, 1, 0},
	}
	for _, tc := range tests {
		if got := DLPSWIterations(tc.d, tc.eps); got != tc.want {
			t.Errorf("DLPSWIterations(%v,%v) = %d, want %d", tc.d, tc.eps, got, tc.want)
		}
	}
}

func TestDLPSWConverges(t *testing.T) {
	n, tc := 7, 2
	inputs := []float64{0, 64, 32, 16, 48, 8, 56}
	outputs, _, err := RunReal(n, tc, inputs, 64, 1, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkAA(t, inputs, nil, outputs, 1)
}

// dlpswSplitter equivocates in the plain broadcast of DLPSW every iteration:
// low values to one half, high to the other. Undetectable by DLPSW, it
// enforces the per-iteration halving floor.
type dlpswSplitter struct {
	ids    []sim.PartyID
	n      int
	tag    string
	lo, hi float64
}

func (a *dlpswSplitter) Initial() []sim.PartyID { return a.ids }
func (a *dlpswSplitter) Step(r int, _ []sim.Message, _ map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	var msgs []sim.Message
	for _, from := range a.ids {
		for to := 0; to < a.n; to++ {
			v := a.lo
			if to >= a.n/2 {
				v = a.hi
			}
			msgs = append(msgs, sim.Message{From: from, To: sim.PartyID(to), Payload: DLPSWMsg{Tag: a.tag, Iter: r, Val: v}})
		}
	}
	return msgs, nil
}

func TestDLPSWValidUnderSplitter(t *testing.T) {
	n, tc := 7, 2
	inputs := []float64{0, 100, 50, 25, 75, 0, 0}
	corrupt := map[sim.PartyID]bool{5: true, 6: true}
	adv := &dlpswSplitter{ids: []sim.PartyID{5, 6}, n: n, tag: "real", lo: -1e6, hi: 1e6}
	outputs, _, err := RunReal(n, tc, inputs, 100, 1, false, adv)
	if err != nil {
		t.Fatal(err)
	}
	checkAA(t, inputs, corrupt, outputs, 1)
}

func TestRealAARandomizedAdversary(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(6)
		tc := (n - 1) / 3
		inputs := make([]float64, n)
		for i := range inputs {
			inputs[i] = float64(rng.Intn(100))
		}
		corrupt := map[sim.PartyID]bool{}
		var ids []sim.PartyID
		for len(ids) < tc {
			p := sim.PartyID(rng.Intn(n))
			if !corrupt[p] {
				corrupt[p] = true
				ids = append(ids, p)
			}
		}
		adv := &randomRealAdversary{ids: ids, n: n, rng: rand.New(rand.NewSource(int64(trial)))}
		outputs, _, err := RunReal(n, tc, inputs, 100, 1, true, adv)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkAA(t, inputs, corrupt, outputs, 1)
	}
}

// randomRealAdversary sends random gradecast traffic from corrupted parties.
type randomRealAdversary struct {
	ids []sim.PartyID
	n   int
	rng *rand.Rand
}

func (a *randomRealAdversary) Initial() []sim.PartyID { return a.ids }
func (a *randomRealAdversary) Step(r int, _ []sim.Message, _ map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	iter := (r-1)/3 + 1
	phase := (r - 1) % 3
	var msgs []sim.Message
	for _, from := range a.ids {
		for to := 0; to < a.n; to++ {
			if a.rng.Intn(4) == 0 {
				continue
			}
			var payload any
			switch phase {
			case 0:
				payload = gradecastSend("real", iter, float64(a.rng.Intn(200)-50))
			case 1:
				payload = gradecastEcho("real", iter, a.randVec())
			default:
				payload = gradecastVote("real", iter, a.randVec())
			}
			msgs = append(msgs, sim.Message{From: from, To: sim.PartyID(to), Payload: payload})
		}
	}
	return msgs, nil
}

func (a *randomRealAdversary) randVec() map[sim.PartyID]float64 {
	vals := map[sim.PartyID]float64{}
	for l := 0; l < a.n; l++ {
		if a.rng.Intn(2) == 0 {
			vals[sim.PartyID(l)] = float64(a.rng.Intn(200) - 50)
		}
	}
	return vals
}

func TestRunRealInputMismatch(t *testing.T) {
	if _, _, err := RunReal(3, 0, []float64{1}, 1, 1, true, nil); err == nil {
		t.Error("want error for input length mismatch")
	}
}

func TestConfigValidate(t *testing.T) {
	base := Config{N: 4, T: 1, ID: 0, Iterations: 1, StartRound: 1}
	bad := []func(c *Config){
		func(c *Config) { c.N = 0 },
		func(c *Config) { c.T = -1 },
		func(c *Config) { c.T = 2 }, // 3T >= N
		func(c *Config) { c.ID = -1 },
		func(c *Config) { c.ID = 4 },
		func(c *Config) { c.Iterations = -1 },
		func(c *Config) { c.StartRound = 0 },
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base config invalid: %v", err)
	}
	for i, mutate := range bad {
		c := base
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: want error", i)
		}
	}
}

// TestDecidedIterationsConsecutive checks the paper's Section 4 remark:
// honest parties observe the eps-termination condition in consecutive
// iterations (never further than one iteration apart), under both no
// adversary and the equivocation attack.
func TestDecidedIterationsConsecutive(t *testing.T) {
	n, tc := 7, 2
	inputs := []float64{0, 100, 50, 25, 75, 0, 0}
	iters := Iterations(tc, 100, 1)
	advs := map[string]sim.Adversary{
		"none":        nil,
		"equivocator": &equivocator{ids: []sim.PartyID{5, 6}, n: n, tag: "real", lo: -1000, hi: 1000},
	}
	for name, adv := range advs {
		machines := make([]sim.Machine, n)
		typed := make([]*Machine, n)
		for i := 0; i < n; i++ {
			m, err := NewMachine(Config{
				N: n, T: tc, ID: sim.PartyID(i), Tag: "real",
				Iterations: iters, StartRound: 1, Input: inputs[i], Eps: 1,
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
		lo, hi := iters+1, 0
		for i := 0; i < 5; i++ { // honest parties
			d := typed[i].DecidedIteration()
			if d == 0 {
				t.Fatalf("%s: party %d never observed the termination condition", name, i)
			}
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		if hi-lo > 1 {
			t.Errorf("%s: decided iterations span [%d,%d], want consecutive", name, lo, hi)
		}
	}
}

func TestDecidedIterationDisabledWithoutEps(t *testing.T) {
	n, tc := 4, 1
	machines := make([]sim.Machine, n)
	var m0 *Machine
	for i := 0; i < n; i++ {
		m, err := NewMachine(Config{N: n, T: tc, ID: sim.PartyID(i), Tag: "real", Iterations: 2, StartRound: 1, Input: float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = m
		if i == 0 {
			m0 = m
		}
	}
	if _, err := sim.Run(sim.Config{N: n, MaxCorrupt: tc, MaxRounds: 8}, machines); err != nil {
		t.Fatal(err)
	}
	if m0.DecidedIteration() != 0 {
		t.Errorf("DecidedIteration = %d without Eps, want 0", m0.DecidedIteration())
	}
}
