package adversary

import (
	"math/rand/v2"
	"slices"

	"treeaa/internal/sim"
)

// SendOmitter is the send-omission adversary (sim.OutboxFilter): the
// parties in IDs run their honest machines, but each of their outgoing
// messages is dropped with probability Drop (per message, per round,
// deterministic in Seed), or — when Halves is set — dropped exactly for
// recipients in the upper half of the ID space, producing the persistent
// split-view pattern of Fekete's omission-model executions.
type SendOmitter struct {
	IDs    []sim.PartyID
	N      int
	Drop   float64
	Halves bool
	Seed   int64
}

var _ sim.OutboxFilter = (*SendOmitter)(nil)

// Initial implements sim.Adversary: omission parties are not Byzantine.
func (a *SendOmitter) Initial() []sim.PartyID { return nil }

// Step implements sim.Adversary: omission faults never inject messages.
func (a *SendOmitter) Step(int, []sim.Message, map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	return nil, nil
}

// OmissionParties implements sim.OutboxFilter.
func (a *SendOmitter) OmissionParties() []sim.PartyID { return a.IDs }

// FilterOutbox implements sim.OutboxFilter. Each random drop is keyed on
// the message — a PCG stream seeded by Seed and (round, sender, recipient,
// position in the outbox) — never drawn from a shared stream, so the filter
// is a pure function of its arguments, whichever seat calls it and however
// often.
func (a *SendOmitter) FilterOutbox(r int, p sim.PartyID, msgs []sim.Message) []sim.Message {
	kept := msgs[:0]
	for i, m := range msgs {
		keep := int(m.To) < a.N/2
		if !a.Halves {
			key := uint64(r)<<48 | uint64(p)<<32 | uint64(m.To)<<16 | uint64(i)
			keep = float64(rand.NewPCG(uint64(a.Seed), key).Uint64()>>11)/(1<<53) >= a.Drop
		}
		if keep {
			kept = append(kept, m)
		}
	}
	return kept
}

// Stop is the crash fault of the paper's model as a send-omission filter
// (sim.OutboxFilter): party IDs[k] runs its honest machine and sends
// everything before round Rounds[k]; in that round only its sends to the
// lower half of its peers — the (N−1)/2 lowest ids other than its own — go
// out; after it, nothing does. It stops partway through a round and never
// comes back, and it counts against t like every other faulty party.
type Stop struct {
	IDs    []sim.PartyID
	N      int
	Rounds []int
}

var _ sim.OutboxFilter = (*Stop)(nil)

// Initial implements sim.Adversary: stopped parties are not Byzantine.
func (a *Stop) Initial() []sim.PartyID { return nil }

// Step implements sim.Adversary: a stopped party never injects messages.
func (a *Stop) Step(int, []sim.Message, map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	return nil, nil
}

// OmissionParties implements sim.OutboxFilter.
func (a *Stop) OmissionParties() []sim.PartyID { return a.IDs }

// FilterOutbox implements sim.OutboxFilter; it reads only its arguments.
func (a *Stop) FilterOutbox(r int, p sim.PartyID, msgs []sim.Message) []sim.Message {
	at := a.Rounds[slices.Index(a.IDs, p)]
	switch {
	case r < at:
		return msgs
	case r > at:
		return msgs[:0]
	}
	// The lower half of the peers by ascending id: those below the
	// (N−1)/2-th, counting from 0 and skipping p.
	half := sim.PartyID((a.N - 1) / 2)
	if half >= p {
		half++
	}
	kept := msgs[:0]
	for _, m := range msgs {
		if m.To != p && m.To < half {
			kept = append(kept, m)
		}
	}
	return kept
}
