package adversary

import (
	"math/rand/v2"

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
