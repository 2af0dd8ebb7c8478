package adversary

import (
	"math"
	"sort"

	"treeaa/internal/gradecast"
	"treeaa/internal/sim"
)

// SplitVote is the strongest implemented attack on RealAA, realizing the
// grade-1/grade-0 split that Fekete-style executions exploit. Against
// gradecast, consistent lying is harmless (all honest views match) and
// naive equivocation is self-defeating (grade 0 everywhere). The only way
// to make honest views diverge is to make a value reach grade >= 1 at some
// honest parties and grade 0 at others. SplitVote stages that split for
// each "fresh" corrupted leader ℓ it spends:
//
//   - send phase: ℓ sends a target value x to exactly n-2t honest parties,
//     so the honest echo count for x is n-2t — one corrupted echo batch
//     short of the n-t vote threshold;
//   - echo phase: all corrupted parties echo x for ℓ to a single honest
//     booster, lifting only the booster's count to n-t, so exactly one
//     honest party votes x;
//   - vote phase: all corrupted parties vote x for ℓ to the target subset
//     A: parties in A count 1+t >= t+1 votes (grade 1, x enters their
//     accepted multiset), parties outside count 1 <= t (grade 0, x does
//     not).
//
// Each spent leader is blacklisted by every honest party afterwards (grade
// < 2 everywhere), so a budget of t parties funds at most t split
// iterations — exactly the Σt_i <= t constraint in Theorem 1. Spending
// PerIteration leaders per iteration with alternating pull directions
// (x = honest min into the upper half, x = honest max into the lower half)
// maximizes the residual divergence per iteration.
//
// The attack reads the honest send-phase traffic (rushing) to learn the
// live range, and needs t >= 1 and n > 3t to stage the thresholds.
type SplitVote struct {
	IDs          []sim.PartyID
	N, T         int
	Tag          string
	StartRound   int
	PerIteration int

	spent   int
	pending []stagedSplit // splits staged this iteration, consumed per phase
}

// stagedSplit is the per-leader plan for the current iteration.
type stagedSplit struct {
	leader  sim.PartyID
	x       float64
	booster sim.PartyID   // the single honest party boosted to vote x
	targetA []sim.PartyID // honest parties whose accepted multiset gains x
}

var _ sim.Adversary = (*SplitVote)(nil)

// Initial implements sim.Adversary.
func (a *SplitVote) Initial() []sim.PartyID { return a.IDs }

// Step implements sim.Adversary.
func (a *SplitVote) Step(r int, honestOut []sim.Message, _ map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	start := a.StartRound
	if start == 0 {
		start = 1
	}
	rr := r - start + 1
	if rr < 1 || a.T < 1 {
		return nil, nil
	}
	iter := (rr-1)/3 + 1
	switch (rr - 1) % 3 {
	case 0:
		return a.sendPhase(iter, honestOut), nil
	case 1:
		return a.echoPhase(iter), nil
	default:
		return a.votePhase(iter), nil
	}
}

// corruptSet returns membership of the controlled parties.
func (a *SplitVote) corruptSet() map[sim.PartyID]bool {
	set := make(map[sim.PartyID]bool, len(a.IDs))
	for _, id := range a.IDs {
		set[id] = true
	}
	return set
}

// honestParties lists the identities not controlled by the adversary.
func (a *SplitVote) honestParties() []sim.PartyID {
	corrupt := a.corruptSet()
	out := make([]sim.PartyID, 0, a.N)
	for p := 0; p < a.N; p++ {
		if !corrupt[sim.PartyID(p)] {
			out = append(out, sim.PartyID(p))
		}
	}
	return out
}

func (a *SplitVote) sendPhase(iter int, honestOut []sim.Message) []sim.Message {
	a.pending = nil
	// Rushing: read the live honest values for this iteration.
	vals := honestSends(honestOut, a.Tag, iter)
	if len(vals) == 0 {
		return nil
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi-lo <= 0 {
		return nil // honest already agree; nothing to stretch
	}
	// Group honest parties by their *current value*: pinning the low-valued
	// half at lo (and the high-valued half at hi) is what survives the
	// trim-t-per-side update; ID-based groups collapse as soon as the value
	// distribution goes bimodal.
	honest := a.honestParties()
	sort.Slice(honest, func(i, j int) bool {
		if vals[honest[i]] != vals[honest[j]] {
			return vals[honest[i]] < vals[honest[j]]
		}
		return honest[i] < honest[j]
	})
	half := len(honest) / 2
	lowGroup := honest[:half]

	per := a.PerIteration
	if per <= 0 {
		per = 1
	}
	var msgs []sim.Message
	for k := 0; k < per && a.spent < len(a.IDs); k++ {
		leader := a.IDs[a.spent]
		// Pin the low-valued group at lo while the benign broadcasts (hi)
		// drag everyone else's trimmed window up: the high side needs no
		// help, so the whole budget goes into keeping the low side low.
		x, target := lo, lowGroup
		a.spent++
		split := stagedSplit{leader: leader, x: x, booster: honest[0], targetA: target}
		a.pending = append(a.pending, split)
		// Send x to exactly n-2t honest parties (echo count lands one
		// corrupted batch below the n-t vote threshold).
		recv := a.N - 2*a.T
		if recv > len(honest) {
			recv = len(honest)
		}
		for _, to := range honest[:recv] {
			msgs = append(msgs, sim.Message{
				From: leader, To: to,
				Payload: gradecast.SendMsg{Tag: a.Tag, Iter: iter, Val: x},
			})
		}
	}
	// Leaders not yet spent must look honest (consistent broadcast, grade 2
	// everywhere): a silent corrupted leader would be blacklisted in the
	// first iteration and could never stage a split later. Broadcasting hi
	// additionally keeps the low-valued minority trimmable on the pinned
	// side.
	for _, leader := range a.IDs[a.spent:] {
		msgs = append(msgs, sim.Message{
			From: leader, To: sim.Broadcast,
			Payload: gradecast.SendMsg{Tag: a.Tag, Iter: iter, Val: hi},
		})
	}
	// Every still-useful leader (including this iteration's fresh splitters)
	// must also gradecast a consistent suspicion mask: silence on the
	// accusation instance is itself a grade-0 event that gets a party
	// convicted within one iteration.
	for _, leader := range a.IDs {
		msgs = append(msgs, sim.Message{
			From: leader, To: sim.Broadcast,
			Payload: gradecast.SendMsg{Tag: a.Tag + "/acc", Iter: iter, Val: 0},
		})
	}
	return msgs
}

// Receivers keep only the first echo/vote vector per sender, so all staged
// splits aimed at the same recipient must share a single merged message.

func (a *SplitVote) echoPhase(iter int) []sim.Message {
	perTo := make(map[sim.PartyID]map[sim.PartyID]float64)
	for _, split := range a.pending {
		if perTo[split.booster] == nil {
			perTo[split.booster] = make(map[sim.PartyID]float64)
		}
		perTo[split.booster][split.leader] = split.x
	}
	var msgs []sim.Message
	for _, from := range a.IDs {
		for to, vals := range perTo {
			msgs = append(msgs, sim.Message{
				From: from, To: to,
				Payload: gradecast.EchoMsg{Tag: a.Tag, Iter: iter, Vals: gradecast.CopyVals(vals)},
			})
		}
	}
	return msgs
}

func (a *SplitVote) votePhase(iter int) []sim.Message {
	perTo := make(map[sim.PartyID]map[sim.PartyID]float64)
	for _, split := range a.pending {
		for _, to := range split.targetA {
			if perTo[to] == nil {
				perTo[to] = make(map[sim.PartyID]float64)
			}
			perTo[to][split.leader] = split.x
		}
	}
	var msgs []sim.Message
	for _, from := range a.IDs {
		for to, vals := range perTo {
			msgs = append(msgs, sim.Message{
				From: from, To: to,
				Payload: gradecast.VoteMsg{Tag: a.Tag, Iter: iter, Vals: gradecast.CopyVals(vals)},
			})
		}
	}
	return msgs
}

// Spent reports how many corrupted leaders have been burned so far.
func (a *SplitVote) Spent() int { return a.spent }
