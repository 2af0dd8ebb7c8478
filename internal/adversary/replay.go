package adversary

import (
	"treeaa/internal/gradecast"
	"treeaa/internal/sim"
)

// Replay records the honest gradecast traffic it observes (rushing) and
// re-sends it from its corrupted parties in later rounds, with the original
// stale iteration tags. A correct protocol must filter messages by
// (tag, iteration) — and by authenticated sender, which the network
// enforces: replayed payloads arrive attributed to the corrupted parties,
// never to the original senders. This strategy exists to regression-test
// that filtering. It keeps the honest payloads' pointers, which is safe
// because a sent payload is never written again (see gradecast).
type Replay struct {
	IDs []sim.PartyID
	// Delay is how many rounds later captured traffic is replayed
	// (default 3 = one full gradecast iteration).
	Delay int

	captured map[int][]sim.Message
}

var _ sim.Adversary = (*Replay)(nil)

// Initial implements sim.Adversary.
func (a *Replay) Initial() []sim.PartyID { return a.IDs }

// Step implements sim.Adversary.
func (a *Replay) Step(r int, honestOut []sim.Message, _ map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	if a.captured == nil {
		a.captured = make(map[int][]sim.Message)
	}
	delay := a.Delay
	if delay <= 0 {
		delay = 3
	}
	// Capture this round's honest payloads worth replaying.
	var batch []sim.Message
	for _, m := range honestOut {
		switch m.Payload.(type) {
		case *gradecast.SendMsg, *gradecast.EchoMsg, *gradecast.VoteMsg:
			batch = append(batch, m)
		}
	}
	if len(batch) > 0 {
		a.captured[r+delay] = batch
	}
	// Replay traffic scheduled for this round from every corrupted party.
	var msgs []sim.Message
	for _, m := range a.captured[r] {
		for _, from := range a.IDs {
			msgs = append(msgs, sim.Message{From: from, To: m.To, Payload: m.Payload})
		}
	}
	delete(a.captured, r)
	return msgs, nil
}

// FrameHonest tries to get *honest* leaders blacklisted: the corrupted
// parties echo and vote fabricated values for every honest leader. Against
// a correct gradecast this is futile — an honest leader's value is echoed
// by all n-t honest parties, so every honest party votes it and grades it
// 2 regardless of up to t fabricated echoes/votes — and the package tests
// assert exactly that (no honest leader ever lands on an ignore list).
type FrameHonest struct {
	IDs  []sim.PartyID
	N    int
	Tag  string
	Fake float64 // the fabricated value attributed to honest leaders
}

var _ sim.Adversary = (*FrameHonest)(nil)

// Initial implements sim.Adversary.
func (a *FrameHonest) Initial() []sim.PartyID { return a.IDs }

// Step implements sim.Adversary.
func (a *FrameHonest) Step(r int, _ []sim.Message, _ map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	iter := (r-1)/3 + 1
	phase := (r - 1) % 3
	corrupt := make(map[sim.PartyID]bool, len(a.IDs))
	for _, id := range a.IDs {
		corrupt[id] = true
	}
	frame := make(map[sim.PartyID]float64, a.N)
	for l := 0; l < a.N; l++ {
		if !corrupt[sim.PartyID(l)] {
			frame[sim.PartyID(l)] = a.Fake
		}
	}
	var honestMask float64
	for l := 0; l < a.N; l++ {
		if !corrupt[sim.PartyID(l)] {
			honestMask += float64(uint64(1) << uint(l))
		}
	}
	// Every framing party sends the same payloads: build them once.
	var mask, payload any
	switch phase {
	case 0:
		// Behave like an honest leader so the framing parties are not
		// themselves blacklisted before the frame can land — and frame
		// every honest party on the accusation instance too (t consistent
		// accusers stay below the t+1 conviction threshold).
		mask = &gradecast.SendMsg{Tag: a.Tag + "/acc", Iter: iter, Val: honestMask}
		payload = &gradecast.SendMsg{Tag: a.Tag, Iter: iter, Val: a.Fake}
	case 1:
		payload = &gradecast.EchoMsg{Tag: a.Tag, Iter: iter, Vals: gradecast.CopyVals(frame)}
	default:
		payload = &gradecast.VoteMsg{Tag: a.Tag, Iter: iter, Vals: gradecast.CopyVals(frame)}
	}
	var msgs []sim.Message
	for _, from := range a.IDs {
		if mask != nil {
			msgs = append(msgs, sim.Message{From: from, To: sim.Broadcast, Payload: mask})
		}
		msgs = append(msgs, sim.Message{From: from, To: sim.Broadcast, Payload: payload})
	}
	return msgs, nil
}
