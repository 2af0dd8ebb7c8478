package gradecast

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"treeaa/internal/sim"
)

func runGradecast(t *testing.T, n, tCorrupt int, vals []float64, adv sim.Adversary) map[sim.PartyID][]Result {
	t.Helper()
	machines := make([]sim.Machine, n)
	for i := 0; i < n; i++ {
		machines[i] = NewMachine(n, tCorrupt, sim.PartyID(i), "gc", vals[i])
	}
	res, err := sim.Run(sim.Config{N: n, MaxCorrupt: tCorrupt, MaxRounds: 5, Adversary: adv}, machines)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[sim.PartyID][]Result)
	for p, v := range res.Outputs {
		out[p] = v.([]Result)
	}
	return out
}

func TestHonestLeadersGetGradeTwo(t *testing.T) {
	n := 7
	vals := []float64{1, 2, 3, 4, 5, 6, 7}
	out := runGradecast(t, n, 2, vals, nil)
	if len(out) != n {
		t.Fatalf("outputs from %d parties, want %d", len(out), n)
	}
	for p, grades := range out {
		for leader := sim.PartyID(0); int(leader) < n; leader++ {
			g := grades[leader]
			if g.Grade != GradeHigh || g.Val != vals[leader] {
				t.Errorf("party %d: leader %d got (%v, %v), want (%v, 2)", p, leader, g.Val, g.Grade, vals[leader])
			}
		}
	}
}

// scriptedAdversary drives corrupted parties with a closure.
type scriptedAdversary struct {
	ids  []sim.PartyID
	step func(r int, honestOut []sim.Message) []sim.Message
}

func (a *scriptedAdversary) Initial() []sim.PartyID { return a.ids }
func (a *scriptedAdversary) Step(r int, honestOut []sim.Message, _ map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	if a.step == nil {
		return nil, nil
	}
	return a.step(r, honestOut), nil
}

// TestEquivocatingLeaderDetected: a corrupted leader sends different values
// to different parties and then echoes/votes honestly for others. No honest
// party may end with grade 2 for a value another honest party doesn't hold,
// and all honest grade>=1 values must agree.
func TestEquivocatingLeaderDetected(t *testing.T) {
	n, tc := 7, 2
	vals := []float64{10, 10, 10, 10, 10, 10, 99}
	badLeader := sim.PartyID(6)
	adv := &scriptedAdversary{
		ids: []sim.PartyID{badLeader},
		step: func(r int, honestOut []sim.Message) []sim.Message {
			switch r {
			case 1:
				// Equivocate: value 0 to parties 0-2, value 1 to parties 3-6.
				var msgs []sim.Message
				for to := 0; to < n; to++ {
					v := 0.0
					if to >= 3 {
						v = 1.0
					}
					msgs = append(msgs, sim.Message{From: badLeader, To: sim.PartyID(to), Payload: SendMsg{Tag: "gc", Iter: 1, Val: v}})
				}
				return msgs
			default:
				return nil // stay silent in echo/vote phases
			}
		},
	}
	out := runGradecast(t, n, tc, vals, adv)
	checkGradecastProperties(t, n, out, badLeader)
	// Honest leaders still deliver grade 2 everywhere.
	for p, grades := range out {
		for leader := 0; leader < 6; leader++ {
			if g := grades[sim.PartyID(leader)]; g.Grade != GradeHigh || g.Val != 10 {
				t.Errorf("party %d: honest leader %d got (%v,%v)", p, leader, g.Val, g.Grade)
			}
		}
	}
}

// checkGradecastProperties asserts gradecast soundness for one leader across
// all honest outputs: grade-2 implies everyone grade>=1 with same value, and
// all grade>=1 values agree.
func checkGradecastProperties(t *testing.T, n int, out map[sim.PartyID][]Result, leader sim.PartyID) {
	t.Helper()
	var withVal []Result
	maxGrade := GradeNone
	for _, grades := range out {
		g := grades[leader]
		if g.Grade >= GradeLow {
			withVal = append(withVal, g)
		}
		if g.Grade > maxGrade {
			maxGrade = g.Grade
		}
	}
	for i := 1; i < len(withVal); i++ {
		if withVal[i].Val != withVal[0].Val {
			t.Errorf("leader %d: honest parties hold different graded values %v vs %v",
				leader, withVal[0].Val, withVal[i].Val)
		}
	}
	if maxGrade == GradeHigh {
		for p, grades := range out {
			if grades[leader].Grade < GradeLow {
				t.Errorf("leader %d: party %d has grade 0 while another has grade 2", leader, p)
			}
		}
	}
}

// TestRandomizedAdversaryPreservesProperties fuzzes the adversary: corrupted
// parties send random well-formed gradecast messages to random subsets, and
// the soundness properties must hold in every execution.
func TestRandomizedAdversaryPreservesProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 150; trial++ {
		n := 4 + rng.Intn(7) // 4..10
		tc := (n - 1) / 3
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(5))
		}
		corrupt := map[sim.PartyID]bool{}
		var ids []sim.PartyID
		for len(ids) < tc {
			p := sim.PartyID(rng.Intn(n))
			if !corrupt[p] {
				corrupt[p] = true
				ids = append(ids, p)
			}
		}
		advRng := rand.New(rand.NewSource(int64(trial)))
		adv := &scriptedAdversary{
			ids: ids,
			step: func(r int, honestOut []sim.Message) []sim.Message {
				var msgs []sim.Message
				for _, from := range ids {
					for to := 0; to < n; to++ {
						if advRng.Intn(3) == 0 {
							continue // selective omission
						}
						var payload any
						switch r {
						case 1:
							payload = SendMsg{Tag: "gc", Iter: 1, Val: float64(advRng.Intn(5))}
						case 2:
							vals := map[sim.PartyID]float64{}
							for l := 0; l < n; l++ {
								if advRng.Intn(2) == 0 {
									vals[sim.PartyID(l)] = float64(advRng.Intn(5))
								}
							}
							payload = EchoMsg{Tag: "gc", Iter: 1, Vals: CopyVals(vals)}
						case 3:
							vals := map[sim.PartyID]float64{}
							for l := 0; l < n; l++ {
								if advRng.Intn(2) == 0 {
									vals[sim.PartyID(l)] = float64(advRng.Intn(5))
								}
							}
							payload = VoteMsg{Tag: "gc", Iter: 1, Vals: CopyVals(vals)}
						default:
							continue
						}
						msgs = append(msgs, sim.Message{From: from, To: sim.PartyID(to), Payload: payload})
					}
				}
				return msgs
			},
		}
		out := runGradecast(t, n, tc, vals, adv)
		for leader := sim.PartyID(0); int(leader) < n; leader++ {
			checkGradecastProperties(t, n, out, leader)
			if !corrupt[leader] {
				// Property 1: honest leaders always yield grade 2 with their value.
				for p, grades := range out {
					if g := grades[leader]; g.Grade != GradeHigh || g.Val != vals[leader] {
						t.Fatalf("trial %d: party %d got (%v,%v) for honest leader %d (val %v)",
							trial, p, g.Val, g.Grade, leader, vals[leader])
					}
				}
			}
		}
	}
}

// echoInbox wraps vecs as the sender-sorted inbox of phase-2 messages they
// arrive in, vecs[i] from party i; voteInbox is the phase-3 form.
func echoInbox(tag string, vecs []Vec) []sim.Message {
	inbox := make([]sim.Message, len(vecs))
	for i, vec := range vecs {
		inbox[i] = sim.Message{From: sim.PartyID(i), Payload: EchoMsg{Tag: tag, Iter: 1, Vals: vec}}
	}
	return inbox
}

func voteInbox(tag string, vecs []Vec) []sim.Message {
	inbox := make([]sim.Message, len(vecs))
	for i, vec := range vecs {
		inbox[i] = sim.Message{From: sim.PartyID(i), Payload: VoteMsg{Tag: tag, Iter: 1, Vals: vec}}
	}
	return inbox
}

// tallyVotes and tallyGrades run one single-instance tally over vecs.
func tallyVotes(n, t int, vecs []Vec) Vec {
	ta := NewTally(n, t, "a")
	ta.CollectEchoes(echoInbox("a", vecs), 1)
	return ta.Votes(0)
}

func tallyGrades(n, t int, vecs []Vec) []Result {
	ta := NewTally(n, t, "a")
	ta.CollectVotes(voteInbox("a", vecs), 1)
	return ta.Grades(0, nil)
}

func TestCollectHelpersFilterTagAndIter(t *testing.T) {
	inbox := []sim.Message{
		{From: 0, Payload: SendMsg{Tag: "a", Iter: 1, Val: 5}},
		{From: 0, Payload: SendMsg{Tag: "a", Iter: 1, Val: 99}}, // duplicate: first wins
		{From: 1, Payload: SendMsg{Tag: "b", Iter: 1, Val: 6}},  // wrong tag
		{From: 2, Payload: SendMsg{Tag: "a", Iter: 2, Val: 7}},  // wrong iter
		{From: 3, Payload: EchoMsg{Tag: "a", Iter: 1, Vals: Vec{{ID: 0, Val: 5}}}},
		{From: 3, Payload: EchoMsg{Tag: "a", Iter: 1, Vals: Vec{{ID: 1, Val: 5}}}}, // duplicate
		{From: 3, Payload: EchoMsg{Tag: "a", Iter: 2, Vals: Vec{{ID: 2, Val: 5}}}}, // wrong iter
		{From: 3, Payload: EchoMsg{Tag: "b", Iter: 1, Vals: Vec{{ID: 3, Val: 5}}}}, // wrong tag
	}
	ta := NewTally(4, 1, "a")
	ta.CollectSends(inbox, 1)
	if got := ta.SendVec(0); !slices.Equal(got, Vec{{ID: 0, Val: 5}}) {
		t.Errorf("SendVec = %v, want {0:5}", got)
	}
	ta.CollectEchoes(inbox, 1)
	if got, want := ta.inst[0].cells, []valCount{{val: 5, count: 1}, {}, {}, {}}; !slices.Equal(got, want) {
		t.Errorf("echo cells = %v, want %v", got, want)
	}
	ta.CollectVotes(inbox, 1)
	if got := ta.inst[0].cells; !slices.Equal(got, make([]valCount, 4)) {
		t.Errorf("vote cells = %v, want all empty", got)
	}
	if got := ta.SendVec(0); got != nil {
		t.Errorf("SendVec after a vote pass = %v, want nil", got)
	}
}

// TestCollectSendVecMatchesMapPath: on a sender-sorted inbox carrying two
// instances, one pass gives each instance the echo vector a map of first
// values per sender gives (CopyVals of it) — same entries, same order, nil
// when empty — and stays so when the Tally is reused.
func TestCollectSendVecMatchesMapPath(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tags := []string{"a", "b"}
	ta := NewTally(8, 2, tags...)
	for trial := 0; trial < 200; trial++ {
		var inbox []sim.Message
		for from := 0; from < 8; from++ {
			for k := rng.Intn(3); k > 0; k-- { // 0, 1 or 2 sends per sender
				inbox = append(inbox, sim.Message{From: sim.PartyID(from),
					Payload: SendMsg{Tag: tags[rng.Intn(2)], Iter: 1 + rng.Intn(2), Val: float64(rng.Intn(5))}})
			}
			if rng.Intn(4) == 0 {
				inbox = append(inbox, sim.Message{From: sim.PartyID(from), Payload: EchoMsg{Tag: "a", Iter: 1}})
			}
		}
		ta.CollectSends(inbox, 1)
		for i, tag := range tags {
			first := map[sim.PartyID]float64{}
			for _, m := range inbox {
				if p, ok := m.Payload.(SendMsg); ok && p.Tag == tag && p.Iter == 1 {
					if _, dup := first[m.From]; !dup {
						first[m.From] = p.Val
					}
				}
			}
			got, want := ta.SendVec(i), CopyVals(first)
			if (got == nil) != (want == nil) || !slices.Equal(got, want) {
				t.Fatalf("trial %d tag %s: SendVec = %v, map path %v", trial, tag, got, want)
			}
		}
	}
}

func TestComputeVotesThreshold(t *testing.T) {
	n, tc := 4, 1
	echoes := []Vec{
		{{ID: 0, Val: 5}, {ID: 1, Val: 7}},
		{{ID: 0, Val: 5}, {ID: 1, Val: 8}},
		{{ID: 0, Val: 5}},
		{{ID: 0, Val: 6}},
	}
	votes := tallyVotes(n, tc, echoes)
	if v, ok := votes.Get(0); !ok || v != 5 {
		t.Errorf("votes[0] = %v,%v, want 5 (3 >= n-t echoes)", v, ok)
	}
	if _, ok := votes.Get(1); ok {
		t.Errorf("votes[1] present, want ⊥ (no value with n-t echoes)")
	}
}

func TestComputeGradesThresholds(t *testing.T) {
	n, tc := 7, 2
	mkVotes := func(count int, val float64) []Vec {
		votes := make([]Vec, count)
		for i := range votes {
			votes[i] = Vec{{ID: 0, Val: val}}
		}
		return votes
	}
	tests := []struct {
		votes int
		want  Grade
	}{
		{5, GradeHigh}, // n-t = 5
		{4, GradeLow},
		{3, GradeLow}, // t+1 = 3
		{2, GradeNone},
		{0, GradeNone},
	}
	for _, tc2 := range tests {
		grades := tallyGrades(n, tc, mkVotes(tc2.votes, 7))
		if g := grades[0].Grade; g != tc2.want {
			t.Errorf("%d votes: grade = %v, want %v", tc2.votes, g, tc2.want)
		}
	}
}

// TestDuplicateLeaderCountsOnce: a vote vector naming one leader n times —
// wire.Decode rejects it, but sim.Config.Tamper and the in-process
// adversaries can hand one over — is one vote for that leader, not n, so t
// such voters cannot lift a value nobody honest voted for to grade 1.
func TestDuplicateLeaderCountsOnce(t *testing.T) {
	n, tc := 7, 2
	stuffed := make(Vec, n)
	for i := range stuffed {
		stuffed[i] = VecEntry{ID: 3, Val: 66}
	}
	votes := make([]Vec, n)
	for p := n - tc; p < n; p++ {
		votes[p] = stuffed
	}
	if g := tallyGrades(n, tc, votes)[3]; g.Grade != GradeNone {
		t.Errorf("leader 3 graded (%v, %v) on %d stuffed vectors, want grade 0", g.Val, g.Grade, tc)
	}
	ta := NewTally(n, tc, "a")
	ta.CollectVotes(voteInbox("a", votes), 1)
	if c := ta.inst[0].cells[3]; c.count != int32(tc) || c.next != 0 {
		t.Errorf("leader 3 cell = %+v, want count %d: one per stuffed vector", c, tc)
	}
	// The echo side is the same pass: no vote for the stuffed value.
	if got := tallyVotes(n, tc, votes); got != nil {
		t.Errorf("votes = %v, want none", got)
	}
	// Out-of-order repeats and a descending tail count nothing either: only
	// ids above every earlier id of the vector do.
	zigzag := Vec{{ID: 3, Val: 66}, {ID: 1, Val: 66}, {ID: 3, Val: 66}, {ID: 2, Val: 66}, {ID: 5, Val: 66}, {ID: 5, Val: 66}}
	ta.CollectVotes(voteInbox("a", []Vec{zigzag}), 1)
	for leader, c := range ta.inst[0].cells {
		want := int32(0)
		if leader == 3 || leader == 5 {
			want = 1
		}
		if c.count != want {
			t.Errorf("zigzag: leader %d counted %d times, want %d", leader, c.count, want)
		}
	}
}

func TestArgmaxDeterministicTieBreak(t *testing.T) {
	nan := math.NaN()
	v, c := argmax([]valCount{{3, 2, 1}, {1, 2, 2}, {2, 1, 0}}, 0)
	if v != 1 || c != 2 {
		t.Errorf("argmax = (%v,%d), want (1,2)", v, c)
	}
	v, c = argmax([]valCount{{2, 3, 1}, {nan, 3, 2}, {1, 3, 0}}, 0)
	if !math.IsNaN(v) || c != 3 {
		t.Errorf("argmax with NaN = (%v,%d), want (NaN,3)", v, c)
	}
	if _, c := argmax(make([]valCount, 1), 0); c != 0 {
		t.Error("argmax over an empty cell should report count 0")
	}
}

func TestSizes(t *testing.T) {
	if s := (SendMsg{Tag: "ab"}).Size(); s != 14 {
		t.Errorf("SendMsg size = %d", s)
	}
	// header(2) + tag len prefix(1) + tag(2) + iter(1) + count(1) + 2*12.
	e := EchoMsg{Tag: "ab", Vals: Vec{{ID: 0, Val: 1}, {ID: 1, Val: 2}}}
	if s := e.Size(); s != 2+1+2+1+1+24 {
		t.Errorf("EchoMsg size = %d", s)
	}
}

// TestQuickVoteGradeSoundness property-tests the pure tally functions: for
// random echo/vote tables (up to t of the senders Byzantine-controlled,
// honest senders consistent), the derived grades obey the soundness rules.
func TestQuickVoteGradeSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	f := func(raw uint32) bool {
		n := 4 + int(raw%7)
		tc := (n - 1) / 3
		leader := sim.PartyID(int(raw>>8) % n)
		honestVal := float64(int(raw>>16) % 5)
		// Honest votes: either all vote honestVal or all abstain (honest
		// voters are consistent by construction of ComputeVotes).
		allVote := raw&1 == 0
		votes := make([]Vec, n)
		for p := 0; p < n-tc; p++ {
			if allVote {
				votes[p] = Vec{{ID: leader, Val: honestVal}}
			} else {
				votes[p] = Vec{}
			}
		}
		// Byzantine votes: arbitrary values.
		for p := n - tc; p < n; p++ {
			votes[p] = Vec{{ID: leader, Val: float64(rng.Intn(5))}}
		}
		g := tallyGrades(n, tc, votes)[leader]
		if allVote {
			// n-t honest votes for honestVal: grade 2 with that value.
			return g.Grade == GradeHigh && g.Val == honestVal
		}
		// Only t Byzantine votes: below t+1, grade 0.
		return g.Grade == GradeNone
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEchoThreshold: a value reaches a vote iff it collects n-t echoes.
func TestQuickEchoThreshold(t *testing.T) {
	f := func(raw uint32) bool {
		n := 4 + int(raw%7)
		tc := (n - 1) / 3
		count := int(raw>>8) % (n + 1)
		echoes := make([]Vec, count)
		for p := range echoes {
			echoes[p] = Vec{{ID: 0, Val: 42}}
		}
		votes := tallyVotes(n, tc, echoes)
		v, ok := votes.Get(0)
		if count >= n-tc {
			return ok && v == 42
		}
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestHonestVotesAllocateNothing: when every echo vector carries the same
// bytes — the honest round, each vector its own allocation as decoded or
// cloned — the vote vector is the first received one, so an echo pass and
// its read-off allocate nothing; with an equivocated column (the split
// shape) the votes differ from every echo and cost their one allocation.
func TestHonestVotesAllocateNothing(t *testing.T) {
	n, tc := 16, 5
	for _, tt := range []struct {
		split  bool
		allocs float64
	}{{false, 0}, {true, 1}} {
		vecs := benchVecs(n, tc, tt.split)
		inbox := echoInbox("a", vecs)
		ta := NewTally(n, tc, "a")
		var votes Vec
		pass := func() {
			ta.CollectEchoes(inbox, 1)
			votes = ta.Votes(0)
		}
		pass() // warm-up: the vote scratch
		if got := testing.AllocsPerRun(100, pass); got != tt.allocs {
			t.Errorf("split=%v: %v allocations per echo pass, want %v", tt.split, got, tt.allocs)
		}
		if aliased := &votes[0] == &vecs[0][0]; aliased == tt.split {
			t.Errorf("split=%v: votes alias the first echo vector: %v", tt.split, aliased)
		}
	}
}
