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
// which is why realaa.Iterations is not capped there. With X == S and t = 1
// the same script is the self-accusing stress case of the one-fault collapse
// (S's split wins wherever both roles use one gradecast instance): every
// honest mask names the party in iteration 2 and it is excluded everywhere.
//
// X and S must be exactly the t corrupted parties (t = 2, or t = 1 with
// X == S): they are also the echo/vote boosters that lift the staged counts
// to the n-t and t+1 thresholds. The strategy is deliberately not in the
// strategy table of internal/cli (the adversary language's one compiler),
// so no generated or flag-selected adversary reaches it.
type ExclusionSplit struct {
	X, S       sim.PartyID
	N, T       int
	Tag        string
	StartRound int

	x         float64       // iteration-1 staged value (the honest minimum)
	receivers []sim.PartyID // n-2t lowest-valued honest parties: send/echo targets
	groupA    []sim.PartyID // low half: gains S's value in iteration 1
	accuser   sim.PartyID   // the one honest party that grades X below 2
	high      []sim.PartyID // iteration-2 targets of S's mask split
	honest    []sim.PartyID // all honest parties, by iteration-1 value
	staged    bool
}

var _ sim.Adversary = (*ExclusionSplit)(nil)

// ids returns the controlled parties: {X, S}, or {X} when they coincide.
func (a *ExclusionSplit) ids() []sim.PartyID {
	if a.X == a.S {
		return []sim.PartyID{a.X}
	}
	return []sim.PartyID{a.X, a.S}
}

// Initial implements sim.Adversary.
func (a *ExclusionSplit) Initial() []sim.PartyID { return a.ids() }

// Step implements sim.Adversary.
func (a *ExclusionSplit) Step(r int, honestOut []sim.Message, _ map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	start := a.StartRound
	if start == 0 {
		start = 1
	}
	rr := r - start + 1
	if rr < 1 || a.T != len(a.ids()) {
		return nil, nil
	}
	iter, phase := (rr-1)/3+1, (rr-1)%3
	acc := a.Tag + "/acc"
	maskX := float64(uint64(1) << uint(a.X))
	switch {
	case iter == 1 && phase == 0:
		return a.stage(honestOut), nil
	case !a.staged:
		return nil, nil
	case iter == 1 && phase == 1:
		// The booster (receivers[0]) alone is lifted to vote S's value; all
		// receivers are lifted to vote X's.
		return a.boost(a.Tag, iter, false, func(to sim.PartyID, vals map[sim.PartyID]float64) {
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
		return a.boost(a.Tag, iter, true, func(to sim.PartyID, vals map[sim.PartyID]float64) {
			if slices.Contains(a.groupA, to) {
				vals[a.S] = a.x
			}
			if a.X != a.S && to != a.accuser {
				vals[a.X] = a.x
			}
		}), nil
	case phase == 0:
		lo, ok := a.liveValues(honestOut, iter)
		if !ok {
			return nil, nil
		}
		msgs := []sim.Message{{From: a.X, To: sim.Broadcast, Payload: gradecast.SendMsg{Tag: a.Tag, Iter: iter, Val: lo}}}
		if iter > 2 || a.X != a.S {
			msgs = append(msgs, sim.Message{From: a.X, To: sim.Broadcast, Payload: gradecast.SendMsg{Tag: acc, Iter: iter, Val: maskX}})
		}
		if iter == 2 {
			for _, to := range a.receivers {
				msgs = append(msgs, sim.Message{From: a.S, To: to, Payload: gradecast.SendMsg{Tag: acc, Iter: iter, Val: maskX}})
			}
		}
		return msgs, nil
	case iter == 2 && phase == 1:
		return a.boost(acc, iter, false, func(to sim.PartyID, vals map[sim.PartyID]float64) {
			if to == a.receivers[0] {
				vals[a.S] = maskX
			}
		}), nil
	case iter == 2 && phase == 2:
		return a.boost(acc, iter, true, func(to sim.PartyID, vals map[sim.PartyID]float64) {
			if slices.Contains(a.high, to) {
				vals[a.S] = maskX
			}
		}), nil
	default:
		return nil, nil
	}
}

// boost emits the staged echo (or, with vote set, vote) support: from every
// controlled party to every honest party that support names a leader for,
// one vector message under tag (receivers keep a sender's first vector per
// tag, so a recipient's support for both leaders travels merged).
func (a *ExclusionSplit) boost(tag string, iter int, vote bool, support func(to sim.PartyID, vals map[sim.PartyID]float64)) []sim.Message {
	var msgs []sim.Message
	for _, from := range a.ids() {
		for _, to := range a.honest {
			vals := make(map[sim.PartyID]float64, 2)
			support(to, vals)
			if len(vals) == 0 {
				continue
			}
			vec := gradecast.CopyVals(vals)
			var payload any = gradecast.EchoMsg{Tag: tag, Iter: iter, Vals: vec}
			if vote {
				payload = gradecast.VoteMsg{Tag: tag, Iter: iter, Vals: vec}
			}
			msgs = append(msgs, sim.Message{From: from, To: to, Payload: payload})
		}
	}
	return msgs
}

// liveValues reads iter's honest send-phase values (rushing): it returns
// their minimum and, in iteration 2, fixes the high group — all but the t
// lowest-valued honest parties.
func (a *ExclusionSplit) liveValues(honestOut []sim.Message, iter int) (float64, bool) {
	vals := honestSends(honestOut, a.Tag, iter)
	if len(vals) == 0 {
		return 0, false
	}
	byVal := sortedByValue(vals)
	if iter == 2 {
		a.high = byVal[min(a.T, len(byVal)):]
	}
	return vals[byVal[0]], true
}

// stage fixes the groups from the live iteration-1 traffic and emits the
// sends of both value splits plus the consistent empty masks.
func (a *ExclusionSplit) stage(honestOut []sim.Message) []sim.Message {
	vals := honestSends(honestOut, a.Tag, 1)
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

	var msgs []sim.Message
	for _, id := range a.ids() {
		for _, to := range a.receivers {
			msgs = append(msgs, sim.Message{From: id, To: to, Payload: gradecast.SendMsg{Tag: a.Tag, Iter: 1, Val: a.x}})
		}
		msgs = append(msgs, sim.Message{From: id, To: sim.Broadcast, Payload: gradecast.SendMsg{Tag: a.Tag + "/acc", Iter: 1, Val: 0}})
	}
	return msgs
}

// honestSends collects the first send-phase value per honest party for the
// given tag and iteration.
func honestSends(honestOut []sim.Message, tag string, iter int) map[sim.PartyID]float64 {
	vals := make(map[sim.PartyID]float64)
	for _, m := range honestOut {
		if p, ok := m.Payload.(gradecast.SendMsg); ok && p.Tag == tag && p.Iter == iter {
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
