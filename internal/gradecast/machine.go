package gradecast

import "treeaa/internal/sim"

// Machine runs a single n-parallel gradecast as a sim.Machine: every party
// leads one instance with its own input value. It occupies three
// communication rounds; the output — one Result per leader — is available
// in round 4.
//
// The zero value is not useful; construct with NewMachine.
type Machine struct {
	id    sim.PartyID
	tag   string
	val   float64
	tally *Tally
	out   []Result
	done  bool
}

var _ sim.Machine = (*Machine)(nil)

// NewMachine returns a gradecast machine for party id with the given input.
func NewMachine(n, t int, id sim.PartyID, tag string, val float64) *Machine {
	return &Machine{id: id, tag: tag, val: val, tally: NewTally(n, t, tag)}
}

// Step implements sim.Machine: round 1 sends, round 2 echoes, round 3 votes,
// round 4 grades.
func (m *Machine) Step(r int, inbox []sim.Message) []sim.Message {
	switch r {
	case 1:
		return []sim.Message{{To: sim.Broadcast, Payload: SendMsg{Tag: m.tag, Iter: 1, Val: m.val}}}
	case 2:
		m.tally.CollectSends(inbox, 1)
		return []sim.Message{{To: sim.Broadcast, Payload: EchoMsg{Tag: m.tag, Iter: 1, Vals: m.tally.SendVec(0)}}}
	case 3:
		m.tally.CollectEchoes(inbox, 1)
		return []sim.Message{{To: sim.Broadcast, Payload: VoteMsg{Tag: m.tag, Iter: 1, Vals: m.tally.Votes(0)}}}
	case 4:
		m.tally.CollectVotes(inbox, 1)
		m.out = m.tally.Grades(0, nil)
		m.done = true
	}
	return nil
}

// Output implements sim.Machine; the value is a []Result indexed by leader.
func (m *Machine) Output() (any, bool) {
	if !m.done {
		return nil, false
	}
	return m.out, true
}
