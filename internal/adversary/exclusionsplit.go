package adversary

import (
	"slices"
	"sort"

	"treeaa/internal/gradecast"
	"treeaa/internal/sim"
)

// ExclusionSplit is the strategy behind Finding F-B (EXPERIMENTS): two
// corrupted parties, X and S, make the *exclusion set itself* diverge, which
// no amount of later detection repairs. RealAA's threshold rule excludes a
// leader once t+1 included suspicion masks name it; the attack parks X at
// exactly t accusations everywhere and lets S's last counted mask — split
// grade-1-vs-0 — tip the count to t+1 at only part of the network:
//
//   - iteration 1: S stages SplitVote's grade-1/0 value split (seeding the
//     divergence the later asymmetry feeds on); X stages a grade-2/1 value
//     split that leaves exactly one honest accuser (send to n-2t honest
//     receivers, every corrupted party echoes to them so they vote, every
//     corrupted party votes to every honest party but the accuser); both
//     gradecast the empty mask consistently;
//   - iteration 2: X broadcasts consistently — value = the live honest
//     minimum, mask = {X} — and S 1/0-splits the mask {X} towards the highest-
//     valued honest parties (all but the low t): they count accuser + X + S =
//     t+1 and exclude X, the low t count t and never do. Every honest mask
//     names S, so S is excluded everywhere by the same step, one iteration too
//     late to take its mask back;
//   - from iteration 3: X broadcasts the honest minimum consistently forever.
//     It is graded 2 wherever it is still heard, so no new accusation ever
//     arrives and the low group keeps accepting a value the rest discard.
//
// For t >= 2 the honest range then halves per iteration and never collapses:
// the "two divergent iterations per Byzantine party" budget does not hold,
// so the Theorem 3 count alone is not a sound schedule and realaa.Iterations
// takes the DLPSW halving count wherever it is longer. With X == S and t = 1
// the same script is the self-accusing stress case of the one-fault collapse
// (S's split wins wherever both roles use one gradecast instance): every
// honest mask names the party in iteration 2 and it is excluded everywhere.
//
// IDs is the Byzantine share. Every member boosts the staged echo and vote
// counts to the n-t and t+1 thresholds, so the script runs only when IDs is
// the whole corrupted set (len(IDs) == T); X and S are members of it. The
// script lands as described for t = 2 (and t = 1 with X == S); a larger
// share only boosts, and the mask split then tips no count. Its iteration 1
// is protocol iteration StartIteration (default 1), so a later start plays
// the split against values that have already moved.
type ExclusionSplit struct {
	IDs            []sim.PartyID
	X, S           sim.PartyID
	N, T           int
	Tag            string
	StartRound     int
	StartIteration int

	x         float64       // iteration-1 staged value (the honest minimum)
	receivers []sim.PartyID // n-2t lowest-valued honest parties: send/echo targets
	groupA    []sim.PartyID // low half: gains S's value in iteration 1
	accuser   sim.PartyID   // the one honest party that grades X below 2
	high      []sim.PartyID // iteration-2 targets of S's mask split
	honest    []sim.PartyID // all honest parties, by iteration-1 value
	staged    bool
}

var _ sim.Adversary = (*ExclusionSplit)(nil)

// roles returns the staging leaders: {X, S}, or {X} when they coincide.
func (a *ExclusionSplit) roles() []sim.PartyID {
	if a.X == a.S {
		return []sim.PartyID{a.X}
	}
	return []sim.PartyID{a.X, a.S}
}

// Initial implements sim.Adversary.
func (a *ExclusionSplit) Initial() []sim.PartyID { return a.IDs }

// Step implements sim.Adversary.
func (a *ExclusionSplit) Step(r int, honestOut []sim.Message, _ map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	start := a.StartRound
	if start == 0 {
		start = 1
	}
	skip := max(a.StartIteration, 1) - 1 // protocol iterations before the script's first
	rr := r - start + 1 - 3*skip
	if rr < 1 || a.T != len(a.IDs) || !slices.Contains(a.IDs, a.X) || !slices.Contains(a.IDs, a.S) {
		return nil, nil
	}
	// iter is the script's iteration; messages carry the protocol's.
	iter, phase := (rr-1)/3+1, (rr-1)%3
	abs := iter + skip
	acc := a.Tag + "/acc"
	maskX := float64(uint64(1) << uint(a.X))
	switch {
	case iter == 1 && phase == 0:
		return a.stage(honestOut, abs), nil
	case !a.staged:
		return nil, nil
	case iter == 1 && phase == 1:
		// The booster (receivers[0]) alone is lifted to vote S's value; all
		// receivers are lifted to vote X's.
		return a.boost(a.Tag, abs, false, func(to sim.PartyID, vals map[sim.PartyID]float64) {
			if to == a.receivers[0] {
				vals[a.S] = a.x
			}
			if a.X != a.S && slices.Contains(a.receivers, to) {
				vals[a.X] = a.x
			}
		}), nil
	case iter == 1 && phase == 2:
		// Group A reaches t+1 votes for S (grade 1, grade 0 elsewhere);
		// everyone but the accuser reaches n-t for X (grade 2, grade 1 there).
		return a.boost(a.Tag, abs, true, func(to sim.PartyID, vals map[sim.PartyID]float64) {
			if slices.Contains(a.groupA, to) {
				vals[a.S] = a.x
			}
			if a.X != a.S && to != a.accuser {
				vals[a.X] = a.x
			}
		}), nil
	case phase == 0:
		lo, ok := a.liveValues(honestOut, iter, abs)
		if !ok {
			return nil, nil
		}
		msgs := []sim.Message{{From: a.X, To: sim.Broadcast, Payload: &gradecast.SendMsg{Tag: a.Tag, Iter: abs, Val: lo}}}
		accuse := &gradecast.SendMsg{Tag: acc, Iter: abs, Val: maskX}
		if iter > 2 || a.X != a.S {
			msgs = append(msgs, sim.Message{From: a.X, To: sim.Broadcast, Payload: accuse})
		}
		if iter == 2 {
			for _, to := range a.receivers {
				msgs = append(msgs, sim.Message{From: a.S, To: to, Payload: accuse})
			}
		}
		return msgs, nil
	case iter == 2 && phase == 1:
		return a.boost(acc, abs, false, func(to sim.PartyID, vals map[sim.PartyID]float64) {
			if to == a.receivers[0] {
				vals[a.S] = maskX
			}
		}), nil
	case iter == 2 && phase == 2:
		return a.boost(acc, abs, true, func(to sim.PartyID, vals map[sim.PartyID]float64) {
			if slices.Contains(a.high, to) {
				vals[a.S] = maskX
			}
		}), nil
	default:
		return nil, nil
	}
}

// boost emits the staged echo (or, with vote set, vote) support: from every
// member of the share to every honest party that support names a leader for,
// one vector message under tag (receivers keep a sender's first vector per
// tag, so a recipient's support for both leaders travels merged).
func (a *ExclusionSplit) boost(tag string, iter int, vote bool, support func(to sim.PartyID, vals map[sim.PartyID]float64)) []sim.Message {
	var msgs []sim.Message
	for _, from := range a.IDs {
		for _, to := range a.honest {
			vals := make(map[sim.PartyID]float64, 2)
			support(to, vals)
			if len(vals) == 0 {
				continue
			}
			vec := gradecast.CopyVals(vals)
			var payload any = &gradecast.EchoMsg{Tag: tag, Iter: iter, Vals: vec}
			if vote {
				payload = &gradecast.VoteMsg{Tag: tag, Iter: iter, Vals: vec}
			}
			msgs = append(msgs, sim.Message{From: from, To: to, Payload: payload})
		}
	}
	return msgs
}

// liveValues reads the honest send-phase values of the script's iteration
// iter, protocol iteration abs (rushing): it returns their minimum and, in
// iteration 2, fixes the high group — all but the t lowest-valued honest
// parties.
func (a *ExclusionSplit) liveValues(honestOut []sim.Message, iter, abs int) (float64, bool) {
	vals := honestSends(honestOut, a.Tag, abs)
	if len(vals) == 0 {
		return 0, false
	}
	byVal := sortedByValue(vals)
	if iter == 2 {
		a.high = byVal[min(a.T, len(byVal)):]
	}
	return vals[byVal[0]], true
}

// stage fixes the groups from the live traffic of protocol iteration abs
// and emits the sends of both value splits plus the consistent empty masks.
func (a *ExclusionSplit) stage(honestOut []sim.Message, abs int) []sim.Message {
	vals := honestSends(honestOut, a.Tag, abs)
	if len(vals) == 0 {
		return nil
	}
	a.honest = sortedByValue(vals)
	if vals[a.honest[0]] == vals[a.honest[len(a.honest)-1]] {
		return nil // nothing to stretch
	}
	a.x = vals[a.honest[0]]
	a.receivers = a.honest[:min(a.N-2*a.T, len(a.honest))]
	a.groupA = a.honest[:len(a.honest)/2]
	a.accuser = a.honest[len(a.honest)-1]
	a.staged = true

	send := &gradecast.SendMsg{Tag: a.Tag, Iter: abs, Val: a.x}
	mask := &gradecast.SendMsg{Tag: a.Tag + "/acc", Iter: abs, Val: 0}
	var msgs []sim.Message
	for _, id := range a.roles() {
		for _, to := range a.receivers {
			msgs = append(msgs, sim.Message{From: id, To: to, Payload: send})
		}
		msgs = append(msgs, sim.Message{From: id, To: sim.Broadcast, Payload: mask})
	}
	return msgs
}

// honestSends collects the first send-phase value per honest party for the
// given tag and iteration.
func honestSends(honestOut []sim.Message, tag string, iter int) map[sim.PartyID]float64 {
	vals := make(map[sim.PartyID]float64)
	for _, m := range honestOut {
		if p, ok := m.Payload.(*gradecast.SendMsg); ok && p.Tag == tag && p.Iter == iter {
			if _, seen := vals[m.From]; !seen {
				vals[m.From] = p.Val
			}
		}
	}
	return vals
}

// sortedByValue lists the parties of vals by ascending value, ties by id.
func sortedByValue(vals map[sim.PartyID]float64) []sim.PartyID {
	out := make([]sim.PartyID, 0, len(vals))
	for p := range vals {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if vals[out[i]] != vals[out[j]] {
			return vals[out[i]] < vals[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}
