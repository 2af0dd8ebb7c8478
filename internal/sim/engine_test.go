package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestRoundsCountsLastSteppedRound pins the Result.Rounds semantics
// documented on the field: Rounds is the index of the last round the driver
// stepped the honest machines, which is the round in which the last machine
// reported done — including a final round in which nothing was sent — or
// MaxRounds on timeout.
func TestRoundsCountsLastSteppedRound(t *testing.T) {
	// A maxMachine with rounds = k broadcasts in rounds 1..k and reports
	// done in round k+1, after consuming the round-k traffic. The driver
	// must count that silent final round.
	for _, k := range []int{1, 2, 5} {
		res, err := Run(Config{N: 3, MaxRounds: 20}, maxMachines([]int{1, 2, 3}, k))
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != k+1 {
			t.Errorf("rounds = %d, want %d (last broadcast round %d plus the silent terminating round)", res.Rounds, k+1, k)
		}
	}

	// A machine that is done before round 1 still costs the one round in
	// which the driver observes the output.
	done := &funcMachine{
		step:   func(int, []Message) []Message { return nil },
		output: func() (any, bool) { return 0, true },
	}
	res, err := Run(Config{N: 1, MaxRounds: 20}, []Machine{done})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Errorf("rounds = %d, want 1 for an immediately-done machine", res.Rounds)
	}

	// On timeout the partial result reports MaxRounds: every round up to
	// the budget stepped the machines.
	res, err = Run(Config{N: 2, MaxRounds: 4}, maxMachines([]int{1, 2}, 100))
	if err == nil {
		t.Fatal("want ErrNotDone")
	}
	if res == nil || res.Rounds != 4 {
		t.Errorf("timed-out rounds = %+v, want 4", res)
	}
}

// reuseMachine is a broadcast-heavy machine that reuses its outbox slice
// across rounds, the pattern the zero-allocation driver contract permits.
type reuseMachine struct {
	rounds int
	out    []Message
	done   bool
}

func (m *reuseMachine) Step(r int, inbox []Message) []Message {
	if r > m.rounds {
		m.done = true
		return nil
	}
	m.out = append(m.out[:0],
		Message{To: Broadcast, Payload: intPayload(r)},
		Message{To: 0, Payload: intPayload(r)},
	)
	return m.out
}

func (m *reuseMachine) Output() (any, bool) { return nil, m.done }

// TestRunSteadyStateAllocs is the allocation regression guard for the
// arena-style engine: once the lanes, mailboxes and scratch buffers have
// grown to their steady-state sizes, extra rounds of a fixed traffic pattern
// must not allocate. It measures whole executions at two round counts and
// bounds the per-round difference — honest (party 0 merges the lane with its
// unicast mail, everyone else reads the lane), and beside corrupted senders
// that unicast to every party (the adversary's view is rebuilt and all n
// merge buffers are refilled every round).
func TestRunSteadyStateAllocs(t *testing.T) {
	const n, short, long = 8, 32, 96
	for _, adversary := range []bool{false, true} {
		runRounds := func(rounds int) func() {
			return func() {
				machines := make([]Machine, n)
				for i := range machines {
					machines[i] = &reuseMachine{rounds: rounds}
				}
				cfg := Config{N: n, MaxRounds: rounds + 2}
				if adversary {
					cfg.MaxCorrupt = 2
					cfg.Adversary = &splitSender{n: n, t: 2}
				}
				if _, err := Run(cfg, machines); err != nil {
					t.Fatal(err)
				}
			}
		}
		allocsShort := testing.AllocsPerRun(10, runRounds(short))
		allocsLong := testing.AllocsPerRun(10, runRounds(long))
		perRound := (allocsLong - allocsShort) / float64(long-short)
		if perRound > 0.5 {
			t.Errorf("adversary=%v: steady-state allocations: %.2f per round (short=%v, long=%v), want ~0",
				adversary, perRound, allocsShort, allocsLong)
		}
	}
}

// TestBroadcastInboxesShareOneArray pins what the lane buys: after an
// all-broadcast round every party reads the same backing array, and after a
// round with one unicast only its recipient reads a private merge.
func TestBroadcastInboxesShareOneArray(t *testing.T) {
	const n = 5
	first := make([][3]*Message, n) // &inbox[0] per party in rounds 2, 3, 4
	lens := make([][3]int, n)
	machines := make([]Machine, n)
	for i := range machines {
		id := PartyID(i)
		done := false
		machines[i] = &funcMachine{
			step: func(r int, inbox []Message) []Message {
				if r >= 2 && r <= 4 {
					first[id][r-2], lens[id][r-2] = &inbox[0], len(inbox)
				}
				if r == 4 {
					done = true
					return nil
				}
				out := []Message{{To: Broadcast, Payload: intPayload(r)}}
				if r == 2 && id == 1 {
					out = append(out, Message{To: 3, Payload: intPayload(99)})
				}
				return out
			},
			output: func() (any, bool) { return nil, done },
		}
	}
	if _, err := Run(Config{N: n, MaxRounds: 5}, machines); err != nil {
		t.Fatal(err)
	}
	for p := 1; p < n; p++ {
		for k, round := range []int{2, 4} { // inboxes of the all-broadcast rounds 1 and 3
			if first[p][2*k] != first[0][2*k] {
				t.Errorf("round %d: party %d reads a copy of the lane, want party 0's array", round, p)
			}
		}
		// Round 3 delivers round 2's traffic: n broadcasts, plus 1→3.
		if shared := first[p][1] == first[0][1]; shared != (p != 3) {
			t.Errorf("round 3: party %d shares party 0's array = %v, want %v", p, shared, p != 3)
		}
	}
	if lens[3][1] != n+1 || lens[0][1] != n {
		t.Errorf("round 3 inbox sizes: party 3 %d, party 0 %d, want %d and %d", lens[3][1], lens[0][1], n+1, n)
	}
}

// viewRecorder corrupts party 3, makes party 2 omission-faulty with a filter
// that keeps everything, and records the first honestOut it is handed.
type viewRecorder struct {
	view []Message
}

func (a *viewRecorder) Initial() []PartyID         { return []PartyID{3} }
func (a *viewRecorder) OmissionParties() []PartyID { return []PartyID{2} }
func (a *viewRecorder) FilterOutbox(_ int, _ PartyID, msgs []Message) []Message {
	return msgs
}
func (a *viewRecorder) Step(r int, honestOut []Message, _ map[PartyID][]Message) ([]Message, []PartyID) {
	if r == 1 {
		a.view = append([]Message(nil), honestOut...)
	}
	return nil, nil
}

// TestAdversaryViewIsSendsAsSent pins the form of honestOut: one stamped
// entry per honest send, by ascending sender in emission order, a broadcast
// once with To == Broadcast — except an omission party's, which its filter
// sees expanded per recipient and the view shows as the filter left it.
func TestAdversaryViewIsSendsAsSent(t *testing.T) {
	const n = 4
	machines := make([]Machine, n)
	for i := range machines {
		done := false
		machines[i] = &funcMachine{
			step: func(r int, _ []Message) []Message {
				done = r >= 2
				return []Message{{To: Broadcast, Payload: intPayload(1)}, {To: 0, Payload: intPayload(2)}}
			},
			output: func() (any, bool) { return nil, done },
		}
	}
	adv := &viewRecorder{}
	if _, err := Run(Config{N: n, MaxCorrupt: 2, MaxRounds: 3, Adversary: adv}, machines); err != nil {
		t.Fatal(err)
	}
	var want []Message
	for _, from := range []PartyID{0, 1} {
		want = append(want, Message{From: from, To: Broadcast, Round: 1, Payload: intPayload(1)},
			Message{From: from, To: 0, Round: 1, Payload: intPayload(2)})
	}
	for to := PartyID(0); to < n; to++ {
		want = append(want, Message{From: 2, To: to, Round: 1, Payload: intPayload(1)})
	}
	want = append(want, Message{From: 2, To: 0, Round: 1, Payload: intPayload(2)})
	if !reflect.DeepEqual(adv.view, want) {
		t.Errorf("round 1 view:\n got %v\nwant %v", adv.view, want)
	}
}

// TestSortMailboxStable checks the counting sort directly: messages are
// ordered by sender, and the relative order of one sender's messages is
// preserved (the property the gradecast dedup rule relies on).
func TestSortMailboxStable(t *testing.T) {
	e := newEngine(Config{N: 5, MaxRounds: 1})
	box := []Message{
		{From: 3, Payload: intPayload(30)},
		{From: 1, Payload: intPayload(10)},
		{From: 3, Payload: intPayload(31)},
		{From: 0, Payload: intPayload(0)},
		{From: 1, Payload: intPayload(11)},
		{From: 3, Payload: intPayload(32)},
	}
	e.sortMailbox(box)
	var want []Message
	for _, from := range []PartyID{0, 1, 1, 3, 3, 3} {
		want = append(want, Message{From: from})
	}
	for i := range box {
		if box[i].From != want[i].From {
			t.Fatalf("position %d: sender %d, want %d (box %v)", i, box[i].From, want[i].From, box)
		}
	}
	if box[1].Payload.(intPayload) != 10 || box[2].Payload.(intPayload) != 11 {
		t.Errorf("sender 1's messages reordered: %v, %v", box[1].Payload, box[2].Payload)
	}
	if box[3].Payload.(intPayload) != 30 || box[4].Payload.(intPayload) != 31 || box[5].Payload.(intPayload) != 32 {
		t.Errorf("sender 3's messages reordered: %v", box[3:])
	}

	// Already-sorted inputs take the scan fast path; result must be
	// identical to a stable sort (i.e. unchanged).
	sorted := []Message{{From: 0, Payload: intPayload(1)}, {From: 0, Payload: intPayload(2)}, {From: 4}}
	snapshot := append([]Message(nil), sorted...)
	e.sortMailbox(sorted)
	if !reflect.DeepEqual(sorted, snapshot) {
		t.Errorf("sorted mailbox changed: %v", sorted)
	}
}

// turncoat corrupts party 1 mid-execution at round 2 and floods from it.
type turncoat struct {
	burst int
	done  bool
}

func (a *turncoat) Initial() []PartyID { return nil }
func (a *turncoat) Step(r int, _ []Message, _ map[PartyID][]Message) ([]Message, []PartyID) {
	if r != 2 || a.done {
		return nil, nil
	}
	a.done = true
	msgs := make([]Message, 0, a.burst)
	for i := 0; i < a.burst; i++ {
		msgs = append(msgs, Message{From: 1, To: 0, Payload: intPayload(i)})
	}
	return msgs, []PartyID{1}
}

// TestRetractedMessagesAreWithdrawn pins adaptive corruption's retraction:
// when a party is corrupted mid-round, its just-produced honest sends are
// withdrawn and only the adversary's replacement traffic is delivered.
func TestRetractedMessagesAreWithdrawn(t *testing.T) {
	// Round 2: party 1's honest broadcast is retracted; the adversary
	// floods 10 directed messages from party 1. Party 0 must read exactly
	// those 10 — an 11th would be the retracted broadcast.
	receivedFromFlood := 0
	machines := make([]Machine, 3)
	for i := range machines {
		id := PartyID(i)
		done := false
		machines[i] = &funcMachine{
			step: func(r int, inbox []Message) []Message {
				if id == 0 && r == 3 {
					for _, m := range inbox {
						if m.From == 1 {
							receivedFromFlood++
						}
					}
				}
				if r >= 4 {
					done = true
					return nil
				}
				return []Message{{To: Broadcast, Payload: intPayload(int(id))}}
			},
			output: func() (any, bool) { return nil, done },
		}
	}
	_, err := Run(Config{N: 3, MaxRounds: 8, MaxCorrupt: 1, Adversary: &turncoat{burst: 10}}, machines)
	if err != nil {
		t.Fatal(err)
	}
	if receivedFromFlood != 10 {
		t.Errorf("party 0 received %d round-2 messages from party 1, want the flood's 10 only", receivedFromFlood)
	}
}

// scriptedAdversary replays a deterministic mixed workload: initial and
// adaptive corruption, directed and broadcast sends, floods.
type scriptedAdversary struct{ flipped bool }

func (a *scriptedAdversary) Initial() []PartyID { return []PartyID{5} }
func (a *scriptedAdversary) Step(r int, honestOut []Message, _ map[PartyID][]Message) ([]Message, []PartyID) {
	var more []PartyID
	if r == 3 && !a.flipped {
		a.flipped = true
		more = []PartyID{2}
	}
	msgs := []Message{
		{From: 5, To: Broadcast, Payload: intPayload(1000 + r)},
		{From: 5, To: 0, Payload: intPayload(2000 + r)},
	}
	if a.flipped {
		for i := 0; i < 7; i++ {
			msgs = append(msgs, Message{From: 2, To: 1, Payload: intPayload(3000 + i)})
		}
	}
	// Echo-dependence on honest traffic keeps the adversary rushing-order
	// sensitive: resend the first honest message it sees.
	if len(honestOut) > 0 {
		m := honestOut[0]
		msgs = append(msgs, Message{From: 5, To: m.To, Payload: m.Payload})
	}
	return msgs, more
}

// TestSequentialConcurrentEquivalenceWithAdversary extends the equivalence
// guarantee to the adversary path: adaptive corruption, retraction and
// directed/broadcast adversary traffic must all behave identically under
// both drivers. Run under -race by the Makefile gate.
func TestSequentialConcurrentEquivalenceWithAdversary(t *testing.T) {
	mk := func() []Machine { return maxMachines([]int{5, 12, 7, 3, 9, 11, 2, 8}, 4) }
	cfg := func() Config {
		return Config{N: 8, MaxRounds: 12, MaxCorrupt: 2, Adversary: &scriptedAdversary{}}
	}
	seq, err := Run(cfg(), mk())
	if err != nil {
		t.Fatal(err)
	}
	conc, err := RunConcurrent(cfg(), mk())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, conc) {
		t.Errorf("results differ:\nseq  %+v\nconc %+v", seq, conc)
	}
}

// TestEquivalenceRandomizedTraffic cross-checks the two drivers over
// machines with pseudo-random directed traffic (fixed seed), catching
// ordering bugs a structured protocol would mask.
func TestEquivalenceRandomizedTraffic(t *testing.T) {
	const n, rounds = 9, 6
	mk := func() []Machine {
		machines := make([]Machine, n)
		for i := range machines {
			id := PartyID(i)
			rng := rand.New(rand.NewSource(int64(7 + i)))
			done := false
			machines[i] = &funcMachine{
				step: func(r int, inbox []Message) []Message {
					if r > rounds {
						done = true
						return nil
					}
					var out []Message
					for k := 0; k < 1+rng.Intn(4); k++ {
						to := PartyID(rng.Intn(n + 1)) // n means broadcast
						if int(to) == n {
							to = Broadcast
						}
						out = append(out, Message{To: to, Payload: intPayload(rng.Intn(100))})
					}
					return out
				},
				output: func() (any, bool) { return int(id), done },
			}
		}
		return machines
	}
	cfg := Config{N: n, MaxRounds: rounds + 2}
	seq, err := Run(cfg, mk())
	if err != nil {
		t.Fatal(err)
	}
	conc, err := RunConcurrent(cfg, mk())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, conc) {
		t.Errorf("results differ:\nseq  %+v\nconc %+v", seq, conc)
	}
}

// TestOutOfRangePartyIDsRejected pins the engine's id validation: the
// slice-indexed mailboxes turned silent out-of-range tolerance into
// explicit errors.
func TestOutOfRangePartyIDsRejected(t *testing.T) {
	t.Run("recipient", func(t *testing.T) {
		bad := &funcMachine{
			step:   func(int, []Message) []Message { return []Message{{To: 7, Payload: intPayload(1)}} },
			output: func() (any, bool) { return nil, false },
		}
		if _, err := Run(Config{N: 1, MaxRounds: 3}, []Machine{bad}); err == nil {
			t.Error("want error for out-of-range recipient")
		}
	})
	t.Run("initial corruption", func(t *testing.T) {
		ms := maxMachines([]int{1, 2, 3}, 1)
		if _, err := Run(Config{N: 3, MaxRounds: 3, MaxCorrupt: 2, Adversary: &silencer{ids: []PartyID{5}}}, ms); err == nil {
			t.Error("want error for out-of-range corruption")
		}
	})
}
