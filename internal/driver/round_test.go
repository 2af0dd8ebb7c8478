package driver

import (
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"treeaa/internal/core"
	"treeaa/internal/gradecast"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// note is a Sizer payload so byte accounting is exercised with a known size.
type note struct {
	text string
}

func (n note) Size() int { return len(n.text) }

// scriptMachine sends a fixed script of messages per round, records every
// inbox it is stepped with, and reports done from doneAt on.
type scriptMachine struct {
	script  map[int][]sim.Message
	doneAt  int
	stepped int
	inboxes map[int][]sim.Message
}

func (m *scriptMachine) Step(r int, inbox []sim.Message) []sim.Message {
	m.stepped = r
	if m.inboxes == nil {
		m.inboxes = make(map[int][]sim.Message)
	}
	m.inboxes[r] = append([]sim.Message(nil), inbox...)
	return m.script[r]
}

func (m *scriptMachine) Output() (any, bool) {
	if m.doneAt > 0 && m.stepped >= m.doneAt {
		return m.doneAt, true
	}
	return nil, false
}

// recSink records what a Round hands its adapter.
type recSink struct {
	emits []string // "r<round>→<to>:<text>"
	eors  []string // "r<round>:<done>"
	fail  error
}

func (s *recSink) Emit(round int, to sim.PartyID, payload any) error {
	text := ""
	if n, ok := payload.(note); ok {
		text = n.text
	}
	s.emits = append(s.emits, "r"+itoa(round)+"→"+itoa(int(to))+":"+text)
	return s.fail
}

func (s *recSink) EndRound(round int, done bool) error {
	d := "open"
	if done {
		d = "done"
	}
	s.eors = append(s.eors, "r"+itoa(round)+":"+d)
	return nil
}

func itoa(i int) string { return strconv.Itoa(i) }

// TestRoundFilingErrors: every way an arrival can violate the live window
// or the one-mark-per-round rule is an error naming the offender — never a
// silently stored frame.
func TestRoundFilingErrors(t *testing.T) {
	const self, n = 1, 3
	cases := []struct {
		name   string
		window int
		// file runs against a driver awaiting barrier 2.
		file func(rd *Round) error
		want string // "" = accepted
	}{
		{"message in awaited round", 2, func(rd *Round) error { return rd.File(sim.Message{From: 0, Round: 2}) }, ""},
		{"message one round ahead", 2, func(rd *Round) error { return rd.File(sim.Message{From: 0, Round: 3}) }, ""},
		{"message past the window", 2, func(rd *Round) error { return rd.File(sim.Message{From: 0, Round: 4}) },
			"round 4 message from party 0 outside window [2, 3]"},
		{"message for a consumed round", 2, func(rd *Round) error { return rd.File(sim.Message{From: 2, Round: 1}) },
			"round 1 message from party 2 outside window [2, 3]"},
		{"eor past the window", 2, func(rd *Round) error { return rd.EOR(4, 0, false) },
			"eor(4) from party 0 outside window [2, 3]"},
		{"eor for a consumed round", 2, func(rd *Round) error { return rd.EOR(1, 0, true) },
			"eor(1) from party 0 outside window [2, 3]"},
		{"duplicate eor", 2, func(rd *Round) error {
			if err := rd.EOR(3, 0, false); err != nil {
				return err
			}
			return rd.EOR(3, 0, true)
		}, "duplicate eor(3) from party 0"},
		{"unbounded window takes any future round", 0, func(rd *Round) error {
			if err := rd.EOR(40, 0, false); err != nil {
				return err
			}
			return rd.File(sim.Message{From: 0, Round: 17})
		}, ""},
		{"unbounded window still refuses consumed rounds", 0,
			func(rd *Round) error { return rd.File(sim.Message{From: 0, Round: 1}) },
			"round 1 message from party 0 below the live rounds [2, ...)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rd := NewRound(self, n, 10, tc.window, &scriptMachine{}, &recSink{})
			mustAdvance(t, rd, false) // round 1
			for _, p := range []sim.PartyID{0, 2} {
				if err := rd.EOR(1, p, false); err != nil {
					t.Fatal(err)
				}
			}
			mustAdvance(t, rd, false) // crosses barrier 1, steps round 2
			if rd.Round() != 2 {
				t.Fatalf("awaiting round %d, want 2", rd.Round())
			}
			err := tc.file(rd)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("refused: %v", err)
			case tc.want != "" && (err == nil || err.Error() != tc.want):
				t.Fatalf("got %v, want %q", err, tc.want)
			}
		})
	}
}

func mustAdvance(t *testing.T, rd *Round, wantFinished bool) {
	t.Helper()
	finished, err := rd.Advance()
	if err != nil {
		t.Fatal(err)
	}
	if finished != wantFinished {
		t.Fatalf("Advance finished = %v, want %v", finished, wantFinished)
	}
}

// TestRoundSelfSendOrdering: the local party's own copies land in the next
// inbox at its position in ascending-sender order, in emission order, for
// direct self-sends and the self share of broadcasts alike; the sink still
// sees every message once, and each recipient is charged.
func TestRoundSelfSendOrdering(t *testing.T) {
	const self, n = 1, 3
	m := &scriptMachine{script: map[int][]sim.Message{1: {
		{To: sim.Broadcast, Payload: note{"bcast"}},
		{To: self, Payload: note{"me"}},
		{To: 2, Payload: note{"two"}},
	}}}
	sink := &recSink{}
	rd := NewRound(self, n, 5, 2, m, sink)
	mustAdvance(t, rd, false)
	// Peers' round-1 traffic arrives out of sender order.
	for _, msg := range []sim.Message{
		{From: 2, Round: 1, Payload: note{"c"}},
		{From: 0, Round: 1, Payload: note{"a"}},
		{From: 2, Round: 1, Payload: note{"d"}},
	} {
		if err := rd.File(msg); err != nil {
			t.Fatal(err)
		}
	}
	rd.EOR(1, 0, false)
	rd.EOR(1, 2, false)
	mustAdvance(t, rd, false)

	var got []string
	for _, msg := range m.inboxes[2] {
		got = append(got, itoa(int(msg.From))+":"+msg.Payload.(note).text)
	}
	if want := []string{"0:a", "1:bcast", "1:me", "2:c", "2:d"}; !reflect.DeepEqual(got, want) {
		t.Errorf("round-2 inbox %v, want %v", got, want)
	}
	if want := []string{"r1→-1:bcast", "r1→1:me", "r1→2:two"}; !reflect.DeepEqual(sink.emits[:3], want) {
		t.Errorf("emits %v, want %v", sink.emits, want)
	}
	// 3 broadcast copies of 5 bytes, one 2-byte self-send, one 3-byte send.
	if got, want := rd.Result().PerRound[0], (Tally{Msgs: 5, Bytes: 3*5 + 2 + 3}); got != want {
		t.Errorf("round-1 tally %+v, want %+v", got, want)
	}
}

// TestRoundBatchCrossesBarriers: a party handed several rounds of history
// at once (crash-restart resume, replay-on-connect) steps through every
// completed barrier in one Advance, ending each round in order, and stops
// at the first open one.
func TestRoundBatchCrossesBarriers(t *testing.T) {
	const self, n = 0, 3
	m := &scriptMachine{doneAt: 3}
	sink := &recSink{}
	rd := NewRound(self, n, 10, 0, m, sink)
	for r := 1; r <= 3; r++ {
		for _, p := range []sim.PartyID{1, 2} {
			if err := rd.File(sim.Message{From: p, Round: r, Payload: note{itoa(r)}}); err != nil {
				t.Fatal(err)
			}
			if p == 2 && r == 3 {
				continue // party 2's third mark is still in flight
			}
			if err := rd.EOR(r, p, r >= 3); err != nil {
				t.Fatal(err)
			}
		}
	}
	mustAdvance(t, rd, false)
	if rd.Round() != 3 || rd.Ready() {
		t.Fatalf("after the batch: awaiting round %d (ready=%v), want 3, open", rd.Round(), rd.Ready())
	}
	if want := []string{"r1:open", "r2:open", "r3:done"}; !reflect.DeepEqual(sink.eors, want) {
		t.Errorf("ended rounds %v, want %v", sink.eors, want)
	}
	if len(m.inboxes[3]) != 2 || m.inboxes[3][0].Payload.(note).text != "2" {
		t.Errorf("round-3 inbox %v, want the two round-2 messages", m.inboxes[3])
	}
	if !rd.HasEOR(1) || rd.HasEOR(2) {
		t.Errorf("HasEOR(1)=%v HasEOR(2)=%v on the awaited round, want true,false", rd.HasEOR(1), rd.HasEOR(2))
	}
	rd.EOR(3, 2, true)
	mustAdvance(t, rd, true)
	if res := rd.Result(); res.DoneRound != 3 || res.TermRound != 3 || res.Output != 3 {
		t.Errorf("result %+v, want done and terminated at round 3", res)
	}
}

// TestRoundTermination: the run ends only in a round whose barrier shows
// this party and all peers done; an aggregate Release stands in for the n-1
// marks; and a machine that outlives maxRounds fails with sim.ErrNotDone.
func TestRoundTermination(t *testing.T) {
	t.Run("peer not done keeps stepping", func(t *testing.T) {
		rd := NewRound(0, 2, 5, 2, &scriptMachine{doneAt: 1}, &recSink{})
		mustAdvance(t, rd, false)
		rd.EOR(1, 1, false)
		mustAdvance(t, rd, false)
		rd.EOR(2, 1, true)
		mustAdvance(t, rd, true)
		if res := rd.Result(); res.DoneRound != 1 || res.TermRound != 2 {
			t.Errorf("done at %d, terminated at %d; want 1 and 2", res.DoneRound, res.TermRound)
		}
	})
	t.Run("release", func(t *testing.T) {
		rd := NewRound(0, 4, 5, 0, &scriptMachine{doneAt: 2}, &recSink{})
		mustAdvance(t, rd, false)
		if rd.Ready() {
			t.Fatal("barrier 1 ready before any signal")
		}
		rd.Release(false)
		mustAdvance(t, rd, false)
		if rd.Round() != 2 || rd.Ready() {
			t.Fatalf("round %d ready=%v after one release, want 2,false (a release covers one round)", rd.Round(), rd.Ready())
		}
		rd.Release(true)
		mustAdvance(t, rd, true)
	})
	t.Run("single party", func(t *testing.T) {
		rd := NewRound(0, 1, 5, 2, &scriptMachine{doneAt: 2}, &recSink{})
		mustAdvance(t, rd, true)
		if rd.Result().TermRound != 2 {
			t.Errorf("terminated at %d, want 2", rd.Result().TermRound)
		}
	})
	t.Run("maxRounds exhausted", func(t *testing.T) {
		sink := &recSink{}
		rd := NewRound(0, 1, 3, 2, &scriptMachine{}, sink)
		_, err := rd.Advance()
		if !errors.Is(err, sim.ErrNotDone) || !strings.Contains(err.Error(), "after 3 rounds") {
			t.Fatalf("got %v, want sim.ErrNotDone after 3 rounds", err)
		}
		if len(sink.eors) != 3 {
			t.Errorf("stepped %d rounds, want exactly maxRounds = 3", len(sink.eors))
		}
	})
}

// TestFinalRoundElision: an adapter that opted in finishes at the step that
// leaves its machine done — no EndRound, no marks awaited, TermRound that
// round — whether or not that step sends: its sends are charged to the
// round's tally, as sim.Run counts them, but neither emitted nor filed.
// Without the opt-in, or while the machine is not done, a round ends at its
// barrier as ever.
func TestFinalRoundElision(t *testing.T) {
	const n = 3
	talk := []sim.Message{{To: sim.Broadcast, Payload: note{"x"}}}
	cases := []struct {
		name      string
		script    map[int][]sim.Message
		doneAt    int
		optIn     bool
		wantEORs  []string
		wantEmits []string
		term      int // the round the party finished in; 0 = still running after round 2
	}{
		{"done and silent", map[int][]sim.Message{1: talk}, 2, true, []string{"r1:open"}, []string{"r1→-1:x"}, 2},
		{"not opted in", map[int][]sim.Message{1: talk}, 2, false, []string{"r1:open", "r2:done"}, []string{"r1→-1:x"}, 0},
		{"still talking", map[int][]sim.Message{1: talk, 2: talk}, 2, true, []string{"r1:open"}, []string{"r1→-1:x"}, 2},
		{"not done", map[int][]sim.Message{1: talk, 2: talk}, 3, true, []string{"r1:open", "r2:open"}, []string{"r1→-1:x", "r2→-1:x"}, 0},
		{"done early", map[int][]sim.Message{1: talk}, 1, true, nil, nil, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink := &recSink{}
			rd := NewRound(0, n, 10, 2, &scriptMachine{script: tc.script, doneAt: tc.doneAt}, sink)
			if tc.optIn {
				rd.ElideFinalBarrier()
			}
			mustAdvance(t, rd, tc.term == 1)
			if tc.term != 1 {
				rd.EOR(1, 1, false)
				rd.EOR(1, 2, false)
				mustAdvance(t, rd, tc.term == 2)
			}
			if !reflect.DeepEqual(sink.eors, tc.wantEORs) || !reflect.DeepEqual(sink.emits, tc.wantEmits) {
				t.Errorf("ended rounds %v, emitted %v; want %v, %v", sink.eors, sink.emits, tc.wantEORs, tc.wantEmits)
			}
			if tc.term == 0 {
				return
			}
			sent := 0 // a broadcast is charged once per party, n here
			for r := 1; r <= tc.term; r++ {
				sent += n * len(tc.script[r])
			}
			if res := rd.Result(); res.TermRound != tc.term || len(res.PerRound) != tc.term || res.Total().Msgs != sent {
				t.Errorf("result %+v, want terminated at round %d with %d sends charged", res, tc.term, sent)
			}
			mustAdvance(t, rd, true) // and it stays finished
		})
	}
}

// TestRoundSendErrors: a recipient outside [0, n) and a failing sink both
// fail the step, naming party and round.
func TestRoundSendErrors(t *testing.T) {
	for _, to := range []sim.PartyID{3, -2} {
		m := &scriptMachine{script: map[int][]sim.Message{1: {{To: to, Payload: note{"x"}}}}}
		sink := &recSink{}
		_, err := NewRound(0, 3, 5, 2, m, sink).Advance()
		want := "party 0 round 1: recipient " + itoa(int(to)) + " out of range [0, 3)"
		if err == nil || err.Error() != want {
			t.Errorf("to=%d: got %v, want %q", to, err, want)
		}
		if len(sink.emits) != 0 {
			t.Errorf("to=%d: %v reached the sink", to, sink.emits)
		}
	}
	boom := errors.New("boom")
	m := &scriptMachine{script: map[int][]sim.Message{1: {{To: 1, Payload: note{"x"}}}}}
	if _, err := NewRound(0, 3, 5, 2, m, &recSink{fail: boom}).Advance(); !errors.Is(err, boom) {
		t.Errorf("sink failure surfaced as %v", err)
	}
}

// loopSink wires n Rounds together in memory: the smallest possible adapter.
type loopSink struct {
	self  sim.PartyID
	peers []*Round
}

func (s *loopSink) Emit(round int, to sim.PartyID, payload any) error {
	first, last := Span(len(s.peers), to)
	for p := first; p <= last; p++ {
		if p == s.self {
			continue
		}
		if err := s.peers[p].File(sim.Message{From: s.self, To: p, Round: round, Payload: payload}); err != nil {
			return err
		}
	}
	return nil
}

func (s *loopSink) EndRound(round int, done bool) error {
	for p, rd := range s.peers {
		if sim.PartyID(p) != s.self {
			if err := rd.EOR(round, s.self, done); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestRoundsMatchSim: n Rounds over the in-memory loop adapter, merged,
// reproduce sim.Run — result and per-round trace — for real TreeAA machines,
// under the tightest window a lock-step substrate permits.
func TestRoundsMatchSim(t *testing.T) {
	for _, elide := range []bool{false, true} {
		roundsMatchSim(t, elide)
	}
}

// roundsMatchSim runs the comparison; with elide every party skips the
// final barrier, which must change neither the result nor the trace.
func roundsMatchSim(t *testing.T, elide bool) {
	tr := tree.NewPath(24)
	const n = 5
	build := func() []sim.Machine {
		ms := make([]sim.Machine, n)
		for i := range ms {
			m, err := core.NewMachine(core.Config{Tree: tr, N: n, T: 1, ID: sim.PartyID(i),
				Input: tree.VertexID(i * (tr.NumVertices() - 1) / (n - 1))})
			if err != nil {
				t.Fatal(err)
			}
			ms[i] = m
		}
		return ms
	}
	maxRounds := core.Rounds(tr, 1) + 2
	var wantTrace sim.Trace
	want, err := sim.Run(sim.Config{N: n, MaxCorrupt: 1, MaxRounds: maxRounds, Trace: &wantTrace}, build())
	if err != nil {
		t.Fatal(err)
	}

	rounds := make([]*Round, n)
	for i, m := range build() {
		rounds[i] = NewRound(sim.PartyID(i), n, maxRounds, 2, m, &loopSink{self: sim.PartyID(i), peers: rounds})
		if elide {
			rounds[i].ElideFinalBarrier()
		}
	}
	for running := n; running > 0; {
		running = 0
		for _, rd := range rounds {
			if rd.Result().TermRound > 0 {
				continue
			}
			finished, err := rd.Advance()
			if err != nil {
				t.Fatal(err)
			}
			if !finished {
				running++
			}
		}
	}
	results := make([]*Result, n)
	for i, rd := range rounds {
		results[i] = rd.Result()
	}
	var gotTrace sim.Trace
	got, err := Merge(&gotTrace, nil, results, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("results diverge\n loop: %+v\n  sim: %+v", got, want)
	}
	if !reflect.DeepEqual(gotTrace, wantTrace) {
		t.Errorf("traces diverge\n loop: %+v\n  sim: %+v", gotTrace, wantTrace)
	}

	results[2].TermRound++
	if _, err := Merge(nil, nil, results, nil); err == nil || !strings.Contains(err.Error(), "party 2 terminated at round") {
		t.Errorf("diverging termination rounds merged: %v", err)
	}
}

// echoMachine broadcasts one fixed message per round from a reused outbox.
type echoMachine struct{ out []sim.Message }

func (m *echoMachine) Step(int, []sim.Message) []sim.Message { return m.out }
func (m *echoMachine) Output() (any, bool)                   { return nil, false }

type nopSink struct{}

func (nopSink) Emit(int, sim.PartyID, any) error { return nil }
func (nopSink) EndRound(int, bool) error         { return nil }

// TestRoundSteadyStateAllocFree: once the window's slots exist, filing a
// round of traffic and crossing its barrier recycles them, and framing what
// the round sent — encoding included, one frame for everybody or one per
// peer — reuses the framer's buffers: the property the session engine's
// zero-allocation stepping rests on.
func TestRoundSteadyStateAllocFree(t *testing.T) {
	const n = 4
	payload := any(&gradecast.SendMsg{Tag: "treeaa/pf", Iter: 1, Val: 3})
	frames := 0
	framed := NewFramer(0, n, 7, func(sim.PartyID, []byte) { frames++ })
	for _, tc := range []struct {
		name   string
		sink   Sink
		out    []sim.Message
		frames int // per round
	}{
		{"unframed", nopSink{}, []sim.Message{{To: sim.Broadcast, Payload: payload}}, 0},
		{"broadcast", framed, []sim.Message{{To: sim.Broadcast, Payload: payload}}, 1},
		{"unicast", framed, []sim.Message{{To: sim.Broadcast, Payload: payload}, {To: 2, Payload: payload}}, n - 1},
	} {
		rd := NewRound(0, n, 1<<30, 2, &echoMachine{out: tc.out}, tc.sink)
		round := func() {
			r := rd.Round()
			for p := sim.PartyID(1); p < n; p++ {
				rd.File(sim.Message{From: p, Round: r, Payload: payload})
				rd.File(sim.Message{From: p, Round: r + 1, Payload: payload}) // a peer one round ahead
				rd.EOR(r, p, false)
			}
			if _, err := rd.Advance(); err != nil {
				t.Fatal(err)
			}
		}
		mustAdvance(t, rd, false)
		for i := 0; i < 8; i++ {
			round() // warm up: slots, per-sender slices, inbox scratch, frame buffers
		}
		frames = 0
		if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
			t.Errorf("%s: %v allocations per steady-state round, want 0", tc.name, allocs)
		}
		if frames != 201*tc.frames {
			t.Errorf("%s: %d frames over 201 rounds, want %d", tc.name, frames, 201*tc.frames)
		}
	}
}
