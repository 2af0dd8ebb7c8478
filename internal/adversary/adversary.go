// Package adversary provides reusable Byzantine strategies for the
// synchronous simulator, covering the behaviors the paper's model admits: a
// computationally unbounded, rushing, adaptive adversary controlling up to t
// parties (Section 2), including the budgeted equivocation pattern behind
// Fekete's lower bound (Section 3).
//
// The strategy ladder, roughly by strength against RealAA-style protocols:
//
//   - Silent / CrashAt: benign failures (silence, adaptive crash).
//   - SendOmitter: send-omission faults via sim.OutboxFilter (the party
//     keeps following the protocol; its sends are dropped).
//   - RandomNoise / Replay / FrameHonest: fuzzing, stale-traffic and
//     framing regressions — correct protocols must shrug these off.
//   - GradecastEquivocator: naive equivocation; burned after one iteration.
//   - SplitVote: the grade-1/grade-0 split behind Fekete's chains; each
//     spent leader buys exactly one divergent iteration (Σtᵢ <= t).
//   - HalfBurn: SplitVote's seed plus sustained grade-2/grade-1 half-burns
//     — the attack that defeated naive local blacklisting and motivated the
//     global-exclusion repair (EXPERIMENTS.md, Finding F-A).
//   - ExclusionSplit: splits a suspicion mask so that the exclusion set
//     itself diverges — Finding F-B against that repair for t >= 2, which
//     outlives the Theorem 3 count but not the shipped schedule.
//
// Specs name strategies through internal/cli's adversary language, whose
// one table maps each clause name to a literal of a type here.
//
// Strategies are protocol-aware where useful: the gradecast-level attackers
// craft well-formed gradecast payloads (including the parallel suspicion
// instance — silence there is itself a convicting offense); the DLPSW
// splitter targets the baseline's plain broadcasts. All strategies are
// deterministic given their seed, keeping experiments reproducible.
package adversary

import (
	"math/rand"
	"slices"

	"treeaa/internal/gradecast"
	"treeaa/internal/realaa"
	"treeaa/internal/sim"
)

// Silent corrupts a fixed set from round 1 and sends nothing (crash faults).
type Silent struct {
	IDs []sim.PartyID
}

var _ sim.Adversary = (*Silent)(nil)

// Initial implements sim.Adversary.
func (a *Silent) Initial() []sim.PartyID { return a.IDs }

// Step implements sim.Adversary.
func (a *Silent) Step(int, []sim.Message, map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	return nil, nil
}

// CrashAt lets parties behave honestly and then crashes them: party IDs[k]
// is adaptively corrupted at Rounds[k] (its round-Rounds[k] messages are
// retracted) and stays silent afterwards. It exercises the adaptive
// corruption path of the model.
type CrashAt struct {
	IDs    []sim.PartyID
	Rounds []int

	crashed map[sim.PartyID]bool
}

var _ sim.Adversary = (*CrashAt)(nil)

// Initial implements sim.Adversary: nobody is corrupted up front.
func (a *CrashAt) Initial() []sim.PartyID { return nil }

// Step implements sim.Adversary.
func (a *CrashAt) Step(r int, _ []sim.Message, _ map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	if a.crashed == nil {
		a.crashed = make(map[sim.PartyID]bool)
	}
	var more []sim.PartyID
	for k, id := range a.IDs {
		if !a.crashed[id] && r >= a.Rounds[k] {
			a.crashed[id] = true
			more = append(more, id)
		}
	}
	return nil, more
}

// GradecastEquivocator splits the world in every gradecast send phase: the
// corrupted parties send Lo to the first half of the parties and Hi to the
// rest, and stay silent in echo/vote phases. Against RealAA each corrupted
// party is detected and ignored after its first equivocation.
type GradecastEquivocator struct {
	IDs        []sim.PartyID
	N          int
	Tag        string
	StartRound int // protocol's StartRound (default 1)
	Lo, Hi     float64
}

var _ sim.Adversary = (*GradecastEquivocator)(nil)

// Initial implements sim.Adversary.
func (a *GradecastEquivocator) Initial() []sim.PartyID { return a.IDs }

// Step implements sim.Adversary.
func (a *GradecastEquivocator) Step(r int, _ []sim.Message, _ map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	start := a.StartRound
	if start == 0 {
		start = 1
	}
	rr := r - start + 1
	if rr < 1 || (rr-1)%3 != 0 {
		return nil, nil
	}
	iter := (rr-1)/3 + 1
	lo := &gradecast.SendMsg{Tag: a.Tag, Iter: iter, Val: a.Lo}
	hi := &gradecast.SendMsg{Tag: a.Tag, Iter: iter, Val: a.Hi}
	var msgs []sim.Message
	for _, from := range a.IDs {
		for to := 0; to < a.N; to++ {
			p := lo
			if to >= a.N/2 {
				p = hi
			}
			msgs = append(msgs, sim.Message{From: from, To: sim.PartyID(to), Payload: p})
		}
	}
	return msgs, nil
}

// DLPSWSplitter equivocates against the DLPSW baseline in every iteration:
// because the baseline has no detection, the same corrupted parties push the
// halves apart forever, enforcing the 1/2-per-iteration convergence floor.
// It observes the honest traffic to track the current range.
type DLPSWSplitter struct {
	IDs []sim.PartyID
	N   int
	Tag string
}

var _ sim.Adversary = (*DLPSWSplitter)(nil)

// Initial implements sim.Adversary.
func (a *DLPSWSplitter) Initial() []sim.PartyID { return a.IDs }

// Step implements sim.Adversary.
func (a *DLPSWSplitter) Step(r int, honestOut []sim.Message, _ map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	lo, hi, seen := 0.0, 0.0, false
	for _, m := range honestOut {
		p, ok := m.Payload.(realaa.DLPSWMsg)
		if !ok || p.Tag != a.Tag || p.Iter != r {
			continue
		}
		if !seen || p.Val < lo {
			lo = p.Val
		}
		if !seen || p.Val > hi {
			hi = p.Val
		}
		seen = true
	}
	if !seen {
		return nil, nil
	}
	var msgs []sim.Message
	for _, from := range a.IDs {
		for to := 0; to < a.N; to++ {
			v := lo
			if to >= a.N/2 {
				v = hi
			}
			msgs = append(msgs, sim.Message{
				From: from, To: sim.PartyID(to),
				Payload: realaa.DLPSWMsg{Tag: a.Tag, Iter: r, Val: v},
			})
		}
	}
	return msgs, nil
}

// RandomNoise sends random well-formed gradecast traffic (send, echo and
// vote payloads with random values and random omissions) from its corrupted
// parties — a fuzzing strategy for property tests.
type RandomNoise struct {
	IDs        []sim.PartyID
	N          int
	Tag        string
	StartRound int
	Seed       int64
	// MaxVal bounds the random values (default 100).
	MaxVal int

	rng *rand.Rand
}

var _ sim.Adversary = (*RandomNoise)(nil)

// Initial implements sim.Adversary.
func (a *RandomNoise) Initial() []sim.PartyID { return a.IDs }

// Step implements sim.Adversary.
func (a *RandomNoise) Step(r int, _ []sim.Message, _ map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	if a.rng == nil {
		a.rng = rand.New(rand.NewSource(a.Seed))
	}
	maxVal := a.MaxVal
	if maxVal <= 0 {
		maxVal = 100
	}
	start := a.StartRound
	if start == 0 {
		start = 1
	}
	rr := r - start + 1
	if rr < 1 {
		return nil, nil
	}
	iter := (rr-1)/3 + 1
	phase := (rr - 1) % 3
	randVec := func() gradecast.Vec {
		var vals gradecast.Vec
		for l := 0; l < a.N; l++ {
			if a.rng.Intn(2) == 0 {
				vals = append(vals, gradecast.VecEntry{ID: sim.PartyID(l), Val: float64(a.rng.Intn(2*maxVal) - maxVal/2)})
			}
		}
		return vals
	}
	var msgs []sim.Message
	for _, from := range a.IDs {
		for to := 0; to < a.N; to++ {
			if a.rng.Intn(4) == 0 {
				continue
			}
			var payload any
			switch phase {
			case 0:
				payload = &gradecast.SendMsg{Tag: a.Tag, Iter: iter, Val: float64(a.rng.Intn(2*maxVal) - maxVal/2)}
			case 1:
				payload = &gradecast.EchoMsg{Tag: a.Tag, Iter: iter, Vals: randVec()}
			default:
				payload = &gradecast.VoteMsg{Tag: a.Tag, Iter: iter, Vals: randVec()}
			}
			msgs = append(msgs, sim.Message{From: from, To: sim.PartyID(to), Payload: payload})
		}
	}
	return msgs, nil
}

// Compose chains several strategies over disjoint faulty sets: the initial
// set is the union, each round every strategy contributes its messages and
// adaptive corruptions, and the send-omission members (sim.OutboxFilter)
// are forwarded, each scoped to its own omission parties. A Compose without
// one has no omission parties and filters nothing.
type Compose struct {
	Strategies []sim.Adversary
}

var _ sim.OutboxFilter = (*Compose)(nil)

// Initial implements sim.Adversary.
func (a *Compose) Initial() []sim.PartyID {
	var all []sim.PartyID
	for _, s := range a.Strategies {
		all = append(all, s.Initial()...)
	}
	return all
}

// Step implements sim.Adversary.
func (a *Compose) Step(r int, honestOut []sim.Message, inbox map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	var msgs []sim.Message
	var more []sim.PartyID
	for _, s := range a.Strategies {
		m, c := s.Step(r, honestOut, inbox)
		msgs = append(msgs, m...)
		more = append(more, c...)
	}
	return msgs, more
}

// OmissionParties implements sim.OutboxFilter: the union of the members'
// omission sets.
func (a *Compose) OmissionParties() []sim.PartyID {
	var all []sim.PartyID
	for _, s := range a.Strategies {
		if f, ok := s.(sim.OutboxFilter); ok {
			all = append(all, f.OmissionParties()...)
		}
	}
	return all
}

// FilterOutbox implements sim.OutboxFilter, delegating p's outbox to the
// members that claim p.
func (a *Compose) FilterOutbox(r int, p sim.PartyID, msgs []sim.Message) []sim.Message {
	for _, s := range a.Strategies {
		if f, ok := s.(sim.OutboxFilter); ok && slices.Contains(f.OmissionParties(), p) {
			msgs = f.FilterOutbox(r, p, msgs)
		}
	}
	return msgs
}

// FirstParties returns the canonical corrupted set {n-t, ..., n-1}, the
// highest t identities; experiments corrupt the tail so that honest parties
// keep low, stable IDs.
func FirstParties(n, t int) []sim.PartyID {
	out := make([]sim.PartyID, 0, t)
	for i := n - t; i < n; i++ {
		out = append(out, sim.PartyID(i))
	}
	return out
}
