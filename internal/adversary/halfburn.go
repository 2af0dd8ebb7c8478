package adversary

import (
	"sort"

	"treeaa/internal/gradecast"
	"treeaa/internal/sim"
)

// HalfBurn is the strongest sustained attack the gradecast interface
// permits, combining the two split types gradecast allows:
//
//   - grade-1 vs grade-0 (SplitVote's mechanism) makes some honest parties
//     accept a value others never see — real divergence — but burns the
//     leader at *every* honest party (grade < 2 everywhere), so each leader
//     can do it once;
//   - grade-2 vs grade-1 leaves the leader blacklisted at only part of the
//     network: both groups still accept the value in the split iteration
//     (no divergence yet!), but from the next iteration on the leader can
//     broadcast *consistently* and be heard by group A alone — sustained
//     inclusion asymmetry at no further budget cost.
//
// Alone, the second kind is harmless: the split iteration keeps all honest
// multisets identical, the parties reach exact agreement, and injecting
// into an exactly-agreed multiset cannot move a trimmed midpoint. HalfBurn
// therefore spends its first leader on a grade-1/0 split (seeding
// divergence into iteration 2) and stages grade-2/1 half-burns with the
// remaining leaders, which then pin group A at the live honest minimum in
// every subsequent iteration.
//
// The package test measures the protocol's convergence under this attack
// against the Theorem 3 budget: the paper's guarantee must survive it.
type HalfBurn struct {
	IDs        []sim.PartyID // IDs[0] seeds divergence; IDs[1:] are half-burnt
	N, T       int
	Tag        string
	StartRound int

	x         float64       // staged iteration-1 value (the honest minimum)
	booster   sim.PartyID   // the single honest voter for IDs[0]'s split
	receivers []sim.PartyID // n-2t honest send/echo targets for IDs[1:]
	groupA    []sim.PartyID // the pinned group (never blacklists IDs[1:])
	staged    bool
}

var _ sim.Adversary = (*HalfBurn)(nil)

// Initial implements sim.Adversary.
func (a *HalfBurn) Initial() []sim.PartyID { return a.IDs }

// Step implements sim.Adversary.
func (a *HalfBurn) Step(r int, honestOut []sim.Message, _ map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	start := a.StartRound
	if start == 0 {
		start = 1
	}
	rr := r - start + 1
	if rr < 1 || a.T < 1 || len(a.IDs) == 0 {
		return nil, nil
	}
	iter := (rr-1)/3 + 1
	phase := (rr - 1) % 3

	accMsgs := func() []sim.Message {
		// Stay alive on the accusation instance: a consistent empty mask
		// from every leader (silence is a grade-0 event that convicts).
		var msgs []sim.Message
		for _, id := range a.IDs {
			msgs = append(msgs, sim.Message{From: id, To: sim.Broadcast,
				Payload: gradecast.SendMsg{Tag: a.Tag + "/acc", Iter: iter, Val: 0}})
		}
		return msgs
	}

	switch {
	case iter == 1 && phase == 0:
		return append(a.stage(honestOut), accMsgs()...), nil
	case iter == 1 && phase == 1 && a.staged:
		return a.echoBoost(iter), nil
	case iter == 1 && phase == 2 && a.staged:
		return a.voteBoost(iter), nil
	case iter > 1 && phase == 0 && a.staged:
		// Half-burnt leaders inject the live honest minimum, consistently:
		// grade 2 wherever they are still heard (group A only).
		lo, ok := a.honestMin(honestOut, iter)
		if !ok {
			return nil, nil
		}
		msgs := accMsgs()
		for _, id := range a.IDs[1:] {
			msgs = append(msgs, sim.Message{From: id, To: sim.Broadcast,
				Payload: gradecast.SendMsg{Tag: a.Tag, Iter: iter, Val: lo}})
		}
		return msgs, nil
	default:
		return nil, nil
	}
}

// honestMin reads the minimum honest send-phase value for iter (rushing).
func (a *HalfBurn) honestMin(honestOut []sim.Message, iter int) (float64, bool) {
	vals := honestSends(honestOut, a.Tag, iter)
	if len(vals) == 0 {
		return 0, false
	}
	return vals[sortedByValue(vals)[0]], true
}

// stage fixes the value, booster, receivers and group A from the live
// honest traffic and emits the iteration-1 sends of both split kinds.
func (a *HalfBurn) stage(honestOut []sim.Message) []sim.Message {
	vals := honestSends(honestOut, a.Tag, 1)
	if len(vals) == 0 {
		return nil
	}
	honest := sortedByValue(vals)
	lo, hi := vals[honest[0]], vals[honest[len(honest)-1]]
	if hi == lo {
		return nil // nothing to stretch
	}
	recv := a.N - 2*a.T
	if recv > len(honest) {
		recv = len(honest)
	}
	a.x = lo
	a.booster = honest[0]
	a.receivers = append([]sim.PartyID(nil), honest[:recv]...)
	a.groupA = append([]sim.PartyID(nil), honest[:len(honest)/2]...)
	a.staged = true

	var msgs []sim.Message
	// Divergence seed: IDs[0] sends x to the receivers (its grade-1/0 split
	// uses the booster in the echo phase and group A in the vote phase).
	for _, to := range a.receivers {
		msgs = append(msgs, sim.Message{From: a.IDs[0], To: to,
			Payload: gradecast.SendMsg{Tag: a.Tag, Iter: 1, Val: a.x}})
	}
	// Half-burn staging: IDs[1:] send x to the receivers too.
	for _, id := range a.IDs[1:] {
		for _, to := range a.receivers {
			msgs = append(msgs, sim.Message{From: id, To: to,
				Payload: gradecast.SendMsg{Tag: a.Tag, Iter: 1, Val: a.x}})
		}
	}
	return msgs
}

// echoBoost merges, per recipient, the echo support both split kinds need:
// the booster alone vouches for IDs[0]; the receivers vouch for IDs[1:].
func (a *HalfBurn) echoBoost(iter int) []sim.Message {
	perTo := make(map[sim.PartyID]map[sim.PartyID]float64)
	add := func(to, leader sim.PartyID) {
		if perTo[to] == nil {
			perTo[to] = make(map[sim.PartyID]float64)
		}
		perTo[to][leader] = a.x
	}
	add(a.booster, a.IDs[0])
	for _, leader := range a.IDs[1:] {
		for _, to := range a.receivers {
			add(to, leader)
		}
	}
	// Iterate recipients in sorted order: emission order must be
	// deterministic for the engine's repeat-identical-execution promise.
	tos := make([]sim.PartyID, 0, len(perTo))
	for to := range perTo {
		tos = append(tos, to)
	}
	sort.Slice(tos, func(i, j int) bool { return tos[i] < tos[j] })
	var msgs []sim.Message
	for _, from := range a.IDs {
		for _, to := range tos {
			msgs = append(msgs, sim.Message{From: from, To: to,
				Payload: gradecast.EchoMsg{Tag: a.Tag, Iter: iter, Vals: gradecast.CopyVals(perTo[to])}})
		}
	}
	return msgs
}

// voteBoost sends, to group A only, votes for every staged leader: IDs[0]
// reaches t+1 there (grade 1) and stays below t+1 elsewhere (grade 0);
// IDs[1:] reach n-t there (grade 2) and n-2t elsewhere (grade 1).
func (a *HalfBurn) voteBoost(iter int) []sim.Message {
	vec := make(map[sim.PartyID]float64, len(a.IDs))
	for _, leader := range a.IDs {
		vec[leader] = a.x
	}
	var msgs []sim.Message
	for _, from := range a.IDs {
		for _, to := range a.groupA {
			msgs = append(msgs, sim.Message{From: from, To: to,
				Payload: gradecast.VoteMsg{Tag: a.Tag, Iter: iter, Vals: gradecast.CopyVals(vec)}})
		}
	}
	return msgs
}

// GroupA exposes the pinned group for tests.
func (a *HalfBurn) GroupA() []sim.PartyID { return append([]sim.PartyID(nil), a.groupA...) }
