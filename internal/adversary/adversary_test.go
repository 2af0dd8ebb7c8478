package adversary

import (
	"math"
	"reflect"
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

// TestComposeOmission pins Compose's OutboxFilter forwarding: a composed mix
// of a Byzantine strategy and an omitter presents the omitter's parties and
// scopes filtering to them, and the protocol still converges under the mix.
func TestComposeOmission(t *testing.T) {
	n, tc := 7, 2
	adv := &Compose{Strategies: []sim.Adversary{
		&GradecastEquivocator{IDs: []sim.PartyID{6}, N: n, Tag: "real", StartRound: 1, Lo: -10, Hi: 110},
		&SendOmitter{IDs: []sim.PartyID{5}, N: n, Halves: true},
	}}

	if got := adv.OmissionParties(); !reflect.DeepEqual(got, []sim.PartyID{5}) {
		t.Fatalf("OmissionParties = %v, want [5]", got)
	}
	// Filtering another party's outbox is a no-op; party 5 loses its upper
	// half.
	msgs := []sim.Message{{From: 5, To: 1}, {From: 5, To: 6}}
	if got := adv.FilterOutbox(1, 3, append([]sim.Message(nil), msgs...)); len(got) != 2 {
		t.Errorf("FilterOutbox for non-omission party dropped messages: %v", got)
	}
	if got := adv.FilterOutbox(1, 5, append([]sim.Message(nil), msgs...)); len(got) != 1 || got[0].To != 1 {
		t.Errorf("FilterOutbox(p5) = %v, want only the lower-half recipient", got)
	}

	inputs := []float64{0, 100, 50, 25, 75, 60, 0}
	machines := runRealAA(t, n, tc, inputs, realaa.Iterations(tc, 100, 1), adv)
	corrupt := corruptSet([]sim.PartyID{5, 6}) // omission party carries no guarantees
	if r := honestValueRange(machines, corrupt, len(machines[0].History())-1); r > 1 {
		t.Errorf("final honest range = %v, want <= 1", r)
	}
}

// TestSendOmitterIsPure pins the sim.OutboxFilter contract for the random
// omitter and for Stop: a filter call depends on its arguments only, so
// calls from concurrent seats, in any order and repeated, agree. Stop keeps
// everything before its round, exactly the lower half of the peers in it,
// and nothing after.
func TestSendOmitterIsPure(t *testing.T) {
	n := 7
	outbox := func(from sim.PartyID) []sim.Message {
		var msgs []sim.Message
		for to := 0; to < n; to++ {
			msgs = append(msgs, sim.Message{From: from, To: sim.PartyID(to), Round: 4})
		}
		return msgs
	}
	recipients := func(msgs []sim.Message) []sim.PartyID {
		var to []sim.PartyID
		for _, m := range msgs {
			to = append(to, m.To)
		}
		return to
	}
	for _, a := range []sim.OutboxFilter{
		&SendOmitter{IDs: []sim.PartyID{5}, N: n, Drop: 0.5, Seed: 3},
		&Stop{IDs: []sim.PartyID{5}, N: n, Rounds: []int{4}},
	} {
		first := append([]sim.Message(nil), a.FilterOutbox(4, 5, outbox(5))...)
		a.FilterOutbox(9, 5, outbox(5)) // another round in between changes nothing
		if again := a.FilterOutbox(4, 5, outbox(5)); !reflect.DeepEqual(again, first) {
			t.Errorf("%T: round 4 filtered twice: %v, then %v", a, first, again)
		}
		if len(first) == 0 || len(first) == n {
			t.Errorf("%T: kept %d of %d sends in round 4", a, len(first), n)
		}
	}

	// Stop at round 4 with n = 7: the lower half of a party's six peers is
	// three parties — 0, 1, 2, skipping the party itself.
	for _, c := range []struct {
		p    sim.PartyID
		half []sim.PartyID
	}{{0, []sim.PartyID{1, 2, 3}}, {2, []sim.PartyID{0, 1, 3}}, {3, []sim.PartyID{0, 1, 2}}, {6, []sim.PartyID{0, 1, 2}}} {
		a := &Stop{IDs: []sim.PartyID{4, c.p}, N: n, Rounds: []int{9, 4}}
		if got := recipients(a.FilterOutbox(3, c.p, outbox(c.p))); len(got) != n {
			t.Errorf("party %d before its round: sends to %v, want all %d", c.p, got, n)
		}
		if got := recipients(a.FilterOutbox(4, c.p, outbox(c.p))); !reflect.DeepEqual(got, c.half) {
			t.Errorf("party %d in its round: sends to %v, want %v", c.p, got, c.half)
		}
		if got := a.FilterOutbox(5, c.p, outbox(c.p)); len(got) != 0 {
			t.Errorf("party %d after its round: sends to %v, want none", c.p, recipients(got))
		}
	}
}
