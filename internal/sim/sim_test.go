package sim

import (
	"errors"
	"reflect"
	"testing"
)

// maxMachine is a toy protocol: each party broadcasts its value for a fixed
// number of rounds, adopting the maximum value seen, then outputs it. It
// exercises delivery, broadcast expansion and termination.
type maxMachine struct {
	val    int
	rounds int
	out    int
	done   bool
}

type intPayload int

func (p intPayload) Size() int { return 8 }

func (m *maxMachine) Step(r int, inbox []Message) []Message {
	for _, msg := range inbox {
		if v, ok := msg.Payload.(intPayload); ok && int(v) > m.val {
			m.val = int(v)
		}
	}
	if r > m.rounds {
		if !m.done {
			m.out, m.done = m.val, true
		}
		return nil
	}
	return []Message{{To: Broadcast, Payload: intPayload(m.val)}}
}

func (m *maxMachine) Output() (any, bool) { return m.out, m.done }

func maxMachines(vals []int, rounds int) []Machine {
	ms := make([]Machine, len(vals))
	for i, v := range vals {
		ms[i] = &maxMachine{val: v, rounds: rounds}
	}
	return ms
}

func TestRunMaxProtocol(t *testing.T) {
	vals := []int{3, 9, 1, 7}
	res, err := Run(Config{N: 4, MaxRounds: 10}, maxMachines(vals, 2))
	if err != nil {
		t.Fatal(err)
	}
	for p, out := range res.Outputs {
		if out.(int) != 9 {
			t.Errorf("party %d output %v, want 9", p, out)
		}
	}
	if len(res.Outputs) != 4 {
		t.Errorf("outputs for %d parties, want 4", len(res.Outputs))
	}
	// 2 broadcast rounds × 4 parties × 4 recipients = 32 messages.
	if res.Messages != 32 {
		t.Errorf("messages = %d, want 32", res.Messages)
	}
	if res.Bytes != 32*8 {
		t.Errorf("bytes = %d, want %d", res.Bytes, 32*8)
	}
	if res.Rounds != 3 {
		t.Errorf("rounds = %d, want 3", res.Rounds)
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"zero N", Config{MaxRounds: 5}},
		{"zero MaxRounds", Config{N: 3}},
		{"negative budget", Config{N: 3, MaxRounds: 5, MaxCorrupt: -1}},
		{"budget >= N", Config{N: 3, MaxRounds: 5, MaxCorrupt: 3}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(tc.cfg, nil); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestRunMachineCountMismatch(t *testing.T) {
	if _, err := Run(Config{N: 3, MaxRounds: 5}, maxMachines([]int{1}, 1)); err == nil {
		t.Error("want error for machine count mismatch")
	}
}

func TestRunNotDone(t *testing.T) {
	// Machines that never terminate within MaxRounds.
	ms := maxMachines([]int{1, 2}, 100)
	_, err := Run(Config{N: 2, MaxRounds: 3}, ms)
	if !errors.Is(err, ErrNotDone) {
		t.Errorf("err = %v, want ErrNotDone", err)
	}
}

// silencer corrupts a fixed set and sends nothing.
type silencer struct{ ids []PartyID }

func (s *silencer) Initial() []PartyID { return s.ids }
func (s *silencer) Step(int, []Message, map[PartyID][]Message) ([]Message, []PartyID) {
	return nil, nil
}

func TestAdversaryBudget(t *testing.T) {
	ms := maxMachines([]int{1, 2, 3, 4}, 1)
	_, err := Run(Config{N: 4, MaxRounds: 5, MaxCorrupt: 1, Adversary: &silencer{ids: []PartyID{0, 1}}}, ms)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("err = %v, want ErrBudgetExceeded", err)
	}
}

// forger tries to send a message from an honest party.
type forger struct{}

func (forger) Initial() []PartyID { return []PartyID{0} }
func (forger) Step(int, []Message, map[PartyID][]Message) ([]Message, []PartyID) {
	return []Message{{From: 1, To: Broadcast, Payload: intPayload(99)}}, nil
}

func TestAdversaryCannotForge(t *testing.T) {
	ms := maxMachines([]int{1, 2, 3, 4}, 1)
	_, err := Run(Config{N: 4, MaxRounds: 5, MaxCorrupt: 1, Adversary: forger{}}, ms)
	if !errors.Is(err, ErrForgedSender) {
		t.Errorf("err = %v, want ErrForgedSender", err)
	}
}

// lier broadcasts a huge value from its corrupted party.
type lier struct{ id PartyID }

func (l *lier) Initial() []PartyID { return []PartyID{l.id} }
func (l *lier) Step(r int, _ []Message, _ map[PartyID][]Message) ([]Message, []PartyID) {
	return []Message{{From: l.id, To: Broadcast, Payload: intPayload(1000)}}, nil
}

func TestCorruptedPartyExcludedFromOutputs(t *testing.T) {
	ms := maxMachines([]int{1, 2, 3, 4}, 1)
	res, err := Run(Config{N: 4, MaxRounds: 5, MaxCorrupt: 1, Adversary: &lier{id: 2}}, ms)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Outputs[2]; ok {
		t.Error("corrupted party should have no recorded output")
	}
	// The lie propagates: honest parties adopt 1000 (the toy protocol has no
	// fault tolerance, which is the point of the real protocols).
	for _, p := range []PartyID{0, 1, 3} {
		if res.Outputs[p].(int) != 1000 {
			t.Errorf("party %d output %v, want 1000", p, res.Outputs[p])
		}
	}
}

// adaptive corrupts party 1 at round 2 and silences it.
type adaptive struct{ corrupted bool }

func (a *adaptive) Initial() []PartyID { return nil }
func (a *adaptive) Step(r int, _ []Message, _ map[PartyID][]Message) ([]Message, []PartyID) {
	if r == 2 && !a.corrupted {
		a.corrupted = true
		return nil, []PartyID{1}
	}
	return nil, nil
}

func TestAdaptiveCorruptionRetractsMessages(t *testing.T) {
	// Party 1 holds the max; corrupting it at round 2 retracts its round-2
	// broadcast. Round-1 broadcasts already delivered its value, so honest
	// parties still learn 9 — but the corrupted slot has no output.
	ms := maxMachines([]int{3, 9, 1}, 2)
	res, err := Run(Config{N: 3, MaxRounds: 6, MaxCorrupt: 1, Adversary: &adaptive{}}, ms)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Outputs[1]; ok {
		t.Error("adaptively corrupted party should have no output")
	}
	if !res.Corrupted[1] {
		t.Error("corruption set should contain party 1")
	}
	for _, p := range []PartyID{0, 2} {
		if res.Outputs[p].(int) != 9 {
			t.Errorf("party %d output %v, want 9", p, res.Outputs[p])
		}
	}
}

func TestTraceRecordsRounds(t *testing.T) {
	var tr Trace
	_, err := Run(Config{N: 2, MaxRounds: 5, Trace: &tr}, maxMachines([]int{1, 2}, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Rounds) != 3 {
		t.Fatalf("trace has %d rounds, want 3", len(tr.Rounds))
	}
	if tr.Rounds[0].Messages != 4 {
		t.Errorf("round 1 messages = %d, want 4", tr.Rounds[0].Messages)
	}
	if len(tr.Rounds[2].NewlyDone) != 2 {
		t.Errorf("round 3 newly done = %v, want both parties", tr.Rounds[2].NewlyDone)
	}
}

func TestSequentialConcurrentEquivalence(t *testing.T) {
	vals := []int{5, 12, 7, 3, 9, 11, 2, 8}
	seq, err := Run(Config{N: 8, MaxRounds: 10}, maxMachines(vals, 3))
	if err != nil {
		t.Fatal(err)
	}
	conc, err := RunConcurrent(Config{N: 8, MaxRounds: 10}, maxMachines(vals, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Outputs, conc.Outputs) {
		t.Errorf("outputs differ: seq %v, conc %v", seq.Outputs, conc.Outputs)
	}
	if seq.Messages != conc.Messages || seq.Rounds != conc.Rounds || seq.Bytes != conc.Bytes {
		t.Errorf("accounting differs: seq %+v, conc %+v", seq, conc)
	}
}

func TestDirectedMessageDelivery(t *testing.T) {
	// A machine that sends a directed message only to party 0 and outputs
	// how many messages it received in round 2.
	type counter struct {
		id    PartyID
		count int
		done  bool
	}
	mkStep := func(c *counter) func(int, []Message) []Message {
		return func(r int, inbox []Message) []Message {
			if r == 1 {
				return []Message{{To: 0, Payload: intPayload(int(c.id))}}
			}
			c.count = len(inbox)
			c.done = true
			return nil
		}
	}
	machines := make([]Machine, 3)
	counters := make([]*counter, 3)
	for i := range machines {
		c := &counter{id: PartyID(i)}
		counters[i] = c
		machines[i] = &funcMachine{step: mkStep(c), output: func() (any, bool) { return c.count, c.done }}
	}
	res, err := Run(Config{N: 3, MaxRounds: 3}, machines)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0].(int) != 3 {
		t.Errorf("party 0 received %v, want 3", res.Outputs[0])
	}
	for _, p := range []PartyID{1, 2} {
		if res.Outputs[p].(int) != 0 {
			t.Errorf("party %d received %v, want 0", p, res.Outputs[p])
		}
	}
}

// funcMachine adapts closures to the Machine interface for tests.
type funcMachine struct {
	step   func(int, []Message) []Message
	output func() (any, bool)
}

func (f *funcMachine) Step(r int, inbox []Message) []Message { return f.step(r, inbox) }
func (f *funcMachine) Output() (any, bool)                   { return f.output() }

func TestInboxSortedBySender(t *testing.T) {
	// Round 2 inbox must be sorted by sender id.
	var got []PartyID
	machines := make([]Machine, 4)
	for i := range machines {
		id := PartyID(i)
		done := false
		machines[i] = &funcMachine{
			step: func(r int, inbox []Message) []Message {
				if r == 1 {
					return []Message{{To: 3, Payload: intPayload(int(id))}}
				}
				if id == 3 && r == 2 {
					for _, m := range inbox {
						got = append(got, m.From)
					}
				}
				done = true
				return nil
			},
			output: func() (any, bool) { return nil, done },
		}
	}
	if _, err := Run(Config{N: 4, MaxRounds: 3}, machines); err != nil {
		t.Fatal(err)
	}
	want := []PartyID{0, 1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("inbox order = %v, want %v", got, want)
	}
}

func TestNoCapByDefault(t *testing.T) {
	ms := maxMachines([]int{1, 2, 3}, 1)
	res, err := Run(Config{N: 3, MaxRounds: 4}, ms)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 9 {
		t.Errorf("messages = %d, want 9", res.Messages)
	}
}

// omitAll is an OutboxFilter dropping everything party 1 sends.
type omitAll struct{ both bool }

func (o *omitAll) Initial() []PartyID {
	if o.both {
		return []PartyID{1} // overlap with omission: must be rejected
	}
	return nil
}
func (o *omitAll) Step(int, []Message, map[PartyID][]Message) ([]Message, []PartyID) {
	return nil, nil
}
func (o *omitAll) OmissionParties() []PartyID { return []PartyID{1} }
func (o *omitAll) FilterOutbox(_ int, _ PartyID, _ []Message) []Message {
	return nil
}

func TestOmissionFilterDropsSends(t *testing.T) {
	// Party 1 holds the max but all its sends are dropped: honest parties
	// never learn 9; party 1 itself still runs and outputs.
	ms := maxMachines([]int{3, 9, 1}, 2)
	res, err := Run(Config{N: 3, MaxRounds: 6, MaxCorrupt: 1, Adversary: &omitAll{}}, ms)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []PartyID{0, 2} {
		if res.Outputs[p].(int) != 3 {
			t.Errorf("party %d output %v, want 3 (omitted sender's value must not arrive)", p, res.Outputs[p])
		}
	}
	if res.Outputs[1].(int) != 9 {
		t.Errorf("omission party output %v, want 9 (it still receives)", res.Outputs[1])
	}
}

func TestOmissionCountsTowardBudget(t *testing.T) {
	ms := maxMachines([]int{1, 2}, 1)
	if _, err := Run(Config{N: 2, MaxRounds: 4, MaxCorrupt: 0, Adversary: &omitAll{}}, ms); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("err = %v, want ErrBudgetExceeded", err)
	}
}

// promoter is an OutboxFilter whose omission party is 1 (it drops nothing)
// and that adaptively corrupts `more` at round 2.
type promoter struct{ more []PartyID }

func (a *promoter) Initial() []PartyID { return nil }
func (a *promoter) Step(r int, _ []Message, _ map[PartyID][]Message) ([]Message, []PartyID) {
	if r == 2 {
		return nil, a.more
	}
	return nil, nil
}
func (a *promoter) OmissionParties() []PartyID { return []PartyID{1} }
func (a *promoter) FilterOutbox(_ int, _ PartyID, msgs []Message) []Message {
	return msgs
}

// TestAdaptiveCorruptionCountsOmissionParties pins that the per-round budget
// check counts corrupted ∪ omission, like the initial one: with an omission
// party on the books, adaptive corruption has one slot fewer — and promoting
// the omission party itself to Byzantine uses no new slot.
func TestAdaptiveCorruptionCountsOmissionParties(t *testing.T) {
	cfg := func(more ...PartyID) Config {
		return Config{N: 4, MaxRounds: 6, MaxCorrupt: 1, Adversary: &promoter{more: more}}
	}
	if _, err := Run(cfg(2), maxMachines([]int{1, 2, 3, 4}, 2)); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("omission party 1 + adaptive corruption of 2 with budget 1: err = %v, want ErrBudgetExceeded", err)
	}
	res, err := Run(cfg(1), maxMachines([]int{1, 2, 3, 4}, 2))
	if err != nil {
		t.Fatalf("promoting the omission party to Byzantine stays within budget: %v", err)
	}
	if !res.Corrupted[1] || len(res.Corrupted) != 1 {
		t.Errorf("corrupted = %v, want {1}", res.Corrupted)
	}
	if _, ok := res.Outputs[1]; ok {
		t.Error("promoted party should have no recorded output")
	}
}

func TestOmissionByzantineOverlapRejected(t *testing.T) {
	ms := maxMachines([]int{1, 2, 3}, 1)
	if _, err := Run(Config{N: 3, MaxRounds: 4, MaxCorrupt: 2, Adversary: &omitAll{both: true}}, ms); err == nil {
		t.Error("overlapping Byzantine and omission sets should be rejected")
	}
}

// forgingFilter returns a message with a wrong sender.
type forgingFilter struct{ omitAll }

func (f *forgingFilter) FilterOutbox(_ int, _ PartyID, msgs []Message) []Message {
	if len(msgs) == 0 {
		return nil
	}
	m := msgs[0]
	m.From = 0
	return []Message{m}
}

func TestOmissionFilterCannotForge(t *testing.T) {
	ms := maxMachines([]int{1, 2}, 1)
	if _, err := Run(Config{N: 2, MaxRounds: 4, MaxCorrupt: 1, Adversary: &forgingFilter{}}, ms); !errors.Is(err, ErrForgedSender) {
		t.Errorf("err = %v, want ErrForgedSender", err)
	}
}
