package realaa_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"treeaa/internal/adversary"
	"treeaa/internal/gradecast"
	"treeaa/internal/sim"
)

// TestIterationOneRulesExact is the property test of the iteration-1 echo
// rule (DESIGN §3). Over many seeds — random inputs and diameters, (n, t)
// from (4, 1) to (16, 5) — it runs RealAA(1) with Config.Eps = 1 under
// SplitVote, HalfBurn, ExclusionSplit (every role choice and start
// iteration the seed draws), random noise, FrameHonest, Silent and CrashAt
// (crashes in rounds 2–7), and wherever an honest party decided by the echo
// rule it asserts the lemma's conclusion: every honest output equals that
// party's, exactly.
// The execution stops when the last honest party has decided, so every
// output compared is one an early decision produced or waited for.
func TestIterationOneRulesExact(t *testing.T) {
	seeds := 150
	if testing.Short() {
		seeds = 40
	}
	strategies := []string{"splitvote", "halfburn", "exclusionsplit", "noise", "frame", "silent", "crash"}
	fired := map[string]int{}
	total := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		nt := [][2]int{{4, 1}, {5, 1}, {7, 2}, {8, 2}, {10, 3}, {16, 5}}[rng.Intn(6)]
		n, tc := nt[0], nt[1]
		d := math.Pow(10, 1+5*rng.Float64())
		inputs := make([]float64, n)
		for i := range inputs {
			inputs[i] = math.Round(d * rng.Float64())
		}
		for _, name := range strategies {
			adv := strategy(name, rng, seed, n, tc, d)
			t.Run(fmt.Sprintf("seed=%d/%s", seed, name), func(t *testing.T) {
				if checkEchoRule(t, n, tc, inputs, d, adv) {
					fired[name]++
					total++
				}
			})
		}
	}
	t.Logf("executions where the echo rule decided, per strategy: %v", fired)
	if total == 0 {
		t.Error("the echo rule never decided under attack — the property was never exercised")
	}
}

// checkEchoRule runs one execution and checks every honest decision the
// echo rule took; it reports whether it took one.
func checkEchoRule(t *testing.T, n, tc int, inputs []float64, d float64, adv sim.Adversary) bool {
	t.Helper()
	res, typed := runReal(t, n, tc, inputs, d, 1, adv)
	fired := false
	for p := range typed {
		if res.Corrupted[sim.PartyID(p)] || typed[p].DecidedBy() != "echo" {
			continue
		}
		fired = true
		mine := res.Outputs[sim.PartyID(p)].(float64)
		for q, out := range res.Outputs {
			if v := out.(float64); v != mine {
				t.Errorf("party %d decided %g by the echo rule in iteration %d; party %d output %g",
					p, mine, typed[p].DecidedIteration(), q, v)
			}
		}
	}
	return fired
}

// TestIterationOneRulesTargeted runs the two scripts the pool of
// TestIterationOneRulesExact cannot play, each aimed at one way the echo
// rule could be weakened; on the shipped rule neither decides early, and
// the property holds.
//
//   - mimic, n = 4, t = 1: Byzantine leader 0 sends its value to parties 1
//     and 2 only, then echoes and votes to party 1 exactly what party 1
//     echoed and voted (rushing). Party 1 counts n-t equal echo vectors —
//     unanimous only if n-t of n were enough — and alone grades the leader
//     1, so its value leaves the other parties' and the one-fault collapse
//     ends elsewhere.
//   - exclusionsplit+chorus, n = 7, t = 2: Finding F-B's split leaves X
//     excluded at the high honest parties only; from iteration 3 on, X and
//     S echo a copy of the honest value echo to party 2, a low party, alone.
//     Party 2 counts n equal echoes while the honest accepted multisets
//     still differ — an iteration-3 decision would be wrong if the rule
//     held past iteration 1.
func TestIterationOneRulesTargeted(t *testing.T) {
	for _, c := range []struct {
		name   string
		n, t   int
		inputs []float64
		adv    sim.Adversary
	}{
		{"mimic", 4, 1, []float64{0, 0, 10, 20}, &mimic{leader: 0, to: []sim.PartyID{1, 2}, copyOf: 1, val: 100}},
		{"exclusionsplit+chorus", 7, 2, []float64{0, 0, 0, 200, 400, 600, 1000}, &adversary.Compose{Strategies: []sim.Adversary{
			&adversary.ExclusionSplit{IDs: []sim.PartyID{0, 1}, X: 0, S: 1, N: 7, T: 2, Tag: "real"},
			&chorus{ids: []sim.PartyID{0, 1}, copyOf: 3, to: []sim.PartyID{2}, from: 3},
		}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if checkEchoRule(t, c.n, c.t, c.inputs, 1000, c.adv) {
				t.Error("the echo rule decided; the script should leave it silent")
			}
		})
	}
}

// mimic is TestIterationOneRulesTargeted's echo script: corrupted leader
// sends val to the parties in to, and in each echo and vote round hands
// party copyOf a copy of the vector copyOf itself broadcast.
type mimic struct {
	leader sim.PartyID
	to     []sim.PartyID
	copyOf sim.PartyID
	val    float64
}

func (a *mimic) Initial() []sim.PartyID { return []sim.PartyID{a.leader} }

func (a *mimic) Step(r int, honestOut []sim.Message, _ map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	var out []sim.Message
	switch r {
	case 1:
		for _, to := range a.to {
			out = append(out, sim.Message{From: a.leader, To: to, Payload: &gradecast.SendMsg{Tag: "real", Iter: 1, Val: a.val}})
		}
	case 2, 3:
		for _, m := range honestOut {
			if m.From != a.copyOf {
				continue
			}
			switch p := m.Payload.(type) {
			case *gradecast.EchoMsg:
				if p.Tag == "real" {
					out = append(out, sim.Message{From: a.leader, To: a.copyOf, Payload: p})
				}
			case *gradecast.VoteMsg:
				if p.Tag == "real" {
					out = append(out, sim.Message{From: a.leader, To: a.copyOf, Payload: p})
				}
			}
		}
	}
	return out, nil
}

// chorus has the corrupted parties ids echo, in every iteration from from
// on, a copy of honest party copyOf's value echo to the parties in to
// (rushing): those parties count n equal echoes, the rest only n-t.
type chorus struct {
	ids    []sim.PartyID
	copyOf sim.PartyID
	to     []sim.PartyID
	from   int
}

func (a *chorus) Initial() []sim.PartyID { return nil }

func (a *chorus) Step(r int, honestOut []sim.Message, _ map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	if iter := (r-1)/3 + 1; (r-1)%3 != 1 || iter < a.from {
		return nil, nil
	}
	var out []sim.Message
	for _, m := range honestOut {
		if p, ok := m.Payload.(*gradecast.EchoMsg); ok && m.From == a.copyOf && p.Tag == "real" {
			for _, from := range a.ids {
				for _, to := range a.to {
					out = append(out, sim.Message{From: from, To: to, Payload: p})
				}
			}
		}
	}
	return out, nil
}
