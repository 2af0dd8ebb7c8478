package gradecast

import (
	"fmt"
	"math"
	"testing"

	"treeaa/internal/sim"
)

// laneCase is one round-by-round shape of a lane: n parties, t faults, the
// tally's tags, and what sender from sends under tag instance i — a value
// in phase 1, a vector in phases 2 and 3.
type laneCase struct {
	name string
	n, t int
	tags []string
	val  func(i, from int) float64
	vec  func(i, from int) Vec
}

// laneInbox is a sender-sorted lane of one phase: each sender's message
// under every tag, the payload made by mk.
func (c laneCase) laneInbox(mk func(tag string, i, from int) any) []sim.Message {
	var inbox []sim.Message
	for from := 0; from < c.n; from++ {
		for i, tag := range c.tags {
			inbox = append(inbox, sim.Message{From: sim.PartyID(from), To: sim.Broadcast, Payload: mk(tag, i, from)})
		}
	}
	return inbox
}

// fullVec names every leader of n with value f(leader).
func fullVec(n int, f func(leader int) float64) Vec {
	v := make(Vec, n)
	for leader := range v {
		v[leader] = VecEntry{ID: sim.PartyID(leader), Val: f(leader)}
	}
	return v
}

func laneCases() []laneCase {
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	honest := fullVec(4, func(l int) float64 { return float64(l) })
	withNaN := fullVec(7, func(l int) float64 {
		if l == 3 {
			return nan1
		}
		return float64(l)
	})
	return []laneCase{
		{
			name: "honest", n: 4, t: 1, tags: []string{"v"},
			val: func(_, from int) float64 { return float64(from) },
			vec: func(_, _ int) Vec { return honest },
		},
		{
			// A run of one NaN-carrying vector (countNaN), then vectors
			// whose NaNs differ in bits, and a NaN send.
			name: "nan", n: 7, t: 2, tags: []string{"v"},
			val: func(_, from int) float64 {
				if from == 2 {
					return nan2
				}
				return float64(from)
			},
			vec: func(_, from int) Vec {
				if from < 4 {
					return withNaN
				}
				return fullVec(7, func(l int) float64 {
					if l == 3 || l == from {
						return math.Float64frombits(0x7ff8000000000000 | uint64(from))
					}
					return float64(l)
				})
			},
		},
		{
			// The last t leaders equivocated three ways, so their cells
			// spill past n and chain; -0 and +0 differ in bits.
			name: "equivocated", n: 10, t: 3, tags: []string{"v"},
			val: func(_, from int) float64 { return math.Copysign(0, float64(from%2)-0.5) },
			vec: func(_, from int) Vec {
				return fullVec(10, func(l int) float64 {
					if l >= 7 {
						return float64(from % 3)
					}
					return float64(l)
				})
			},
		},
		{
			// Two mask words: a value instance and the suspicion words 0
			// and 1, the second one split by the first t senders.
			name: "two words", n: 53, t: 17, tags: []string{"v", "v/acc", "v/acc1"},
			val: func(i, from int) float64 { return float64(i*100 + from%5) },
			vec: func(i, from int) Vec {
				return fullVec(53, func(l int) float64 {
					if i == 2 && from < 17 {
						return float64(from % 2)
					}
					return float64(i*1000 + l)
				})
			},
		},
	}
}

// sameResults reports whether two grade vectors are byte-equal.
func sameResults(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Grade != b[i].Grade || math.Float64bits(a[i].Val) != math.Float64bits(b[i].Val) {
			return false
		}
	}
	return true
}

// TestLaneAdoptionMatchesFreshPass: over four rounds of a lane — sends,
// echoes, votes, then the sends of a settled next iteration — a tally that
// adopts the first reader's digest reads off byte-equal Votes, Grades,
// Unanimous and SendVec to a tally that makes its own pass, and it does
// adopt (its read-offs use the first reader's counts).
func TestLaneAdoptionMatchesFreshPass(t *testing.T) {
	for _, c := range laneCases() {
		t.Run(c.name, func(t *testing.T) {
			first := NewTally(c.n, c.t, c.tags...)
			later := NewTally(c.n, c.t, c.tags...)
			fresh := NewTally(c.n, c.t, c.tags...)
			// step runs one round: first and later read lane, fresh its own
			// copy of the inbox with no lane; then check compares.
			step := func(round string, collect func(ta *Tally, lane *sim.Lane), check func(i int) error) {
				t.Helper()
				lane := &sim.Lane{}
				collect(first, lane)
				collect(later, lane)
				collect(fresh, nil)
				if later.counted != first {
					t.Fatalf("%s: the later reader did not adopt the first reader's digest", round)
				}
				if fresh.counted != fresh || first.counted != first {
					t.Fatalf("%s: a tally that made its own pass reads another's counts", round)
				}
				for i := range c.tags {
					if err := check(i); err != nil {
						t.Errorf("%s, instance %s: %v", round, c.tags[i], err)
					}
				}
			}
			sendVecs := func(i int) error {
				a, b := later.SendVec(i), fresh.SendVec(i)
				if !sameVec(a, b) || !sameVec(a, first.SendVec(i)) {
					return fmt.Errorf("SendVec: adopted %v, fresh %v", a, b)
				}
				return nil
			}

			sends := c.laneInbox(func(tag string, i, from int) any { return &SendMsg{Tag: tag, Iter: 1, Val: c.val(i, from)} })
			step("sends", func(ta *Tally, lane *sim.Lane) { ta.CollectSends(lane, sends, 1) }, sendVecs)

			echoes := c.laneInbox(func(tag string, i, from int) any { return &EchoMsg{Tag: tag, Iter: 1, Vals: c.vec(i, from)} })
			voted := make([]Vec, len(c.tags))
			step("echoes", func(ta *Tally, lane *sim.Lane) { ta.CollectEchoes(lane, echoes, 1) }, func(i int) error {
				a, b := later.Votes(i), fresh.Votes(i)
				voted[i] = first.Votes(i)
				if !sameVec(a, b) || !sameVec(a, voted[i]) {
					return fmt.Errorf("Votes: adopted %v, fresh %v", a, b)
				}
				if later.Unanimous(i) != fresh.Unanimous(i) {
					return fmt.Errorf("Unanimous: adopted %v, fresh %v", later.Unanimous(i), fresh.Unanimous(i))
				}
				return nil
			})

			votes := c.laneInbox(func(tag string, i, from int) any { return &VoteMsg{Tag: tag, Iter: 1, Vals: c.vec(i, from)} })
			step("votes", func(ta *Tally, lane *sim.Lane) { ta.CollectVotes(lane, votes, 1) }, func(i int) error {
				a, b := later.Grades(i, nil), fresh.Grades(i, nil)
				if !sameResults(a, b) || !sameResults(a, first.Grades(i, nil)) {
					return fmt.Errorf("Grades: adopted %v, fresh %v", a, b)
				}
				if later.Unanimous(i) != fresh.Unanimous(i) {
					return fmt.Errorf("Unanimous: adopted %v, fresh %v", later.Unanimous(i), fresh.Unanimous(i))
				}
				return nil
			})

			// Iteration 2 sends what was voted: SendVec echoes the memo.
			settled := c.laneInbox(func(tag string, i, from int) any {
				if v, ok := voted[i].Get(sim.PartyID(from)); ok {
					return &SendMsg{Tag: tag, Iter: 2, Val: v}
				}
				return &VoteMsg{Tag: tag, Iter: 2}
			})
			step("settled sends", func(ta *Tally, lane *sim.Lane) { ta.CollectSends(lane, settled, 2) }, sendVecs)
		})
	}
}

// TestLaneAdoptsOnlyItsTagSet: a digest is keyed by the first tag, but a
// tally whose tag set differs beyond it, or whose n or t does (the vote
// threshold is n−t), makes its own pass; so does a tally whose pass or iteration differs from the digest's.
func TestLaneAdoptsOnlyItsTagSet(t *testing.T) {
	vecs := benchVecs(7, 2, true)
	inbox := echoInbox("a", vecs)
	lane := &sim.Lane{}
	first := NewTally(7, 2, "a")
	first.CollectEchoes(lane, inbox, 1)
	for _, tc := range []struct {
		name  string
		ta    *Tally
		pass  func(*Tally)
		adopt bool
	}{
		{"same tally kind", NewTally(7, 2, "a"), func(ta *Tally) { ta.CollectEchoes(lane, inbox, 1) }, true},
		{"more tags", NewTally(7, 2, "a", "b"), func(ta *Tally) { ta.CollectEchoes(lane, inbox, 1) }, false},
		{"other tag", NewTally(7, 2, "b"), func(ta *Tally) { ta.CollectEchoes(lane, inbox, 1) }, false},
		{"other n", NewTally(8, 2, "a"), func(ta *Tally) { ta.CollectEchoes(lane, inbox, 1) }, false},
		{"other t", NewTally(7, 1, "a"), func(ta *Tally) { ta.CollectEchoes(lane, inbox, 1) }, false},
		{"other iteration", NewTally(7, 2, "a"), func(ta *Tally) { ta.CollectEchoes(lane, inbox, 2) }, false},
		{"other pass", NewTally(7, 2, "a"), func(ta *Tally) { ta.CollectVotes(lane, inbox, 1) }, false},
	} {
		tc.pass(tc.ta)
		if adopted := tc.ta.counted == first; adopted != tc.adopt {
			t.Errorf("%s: adopted = %v, want %v", tc.name, adopted, tc.adopt)
		}
	}
	if got, want := tallyVotes(7, 2, vecs), first.Votes(0); !sameVec(got, want) {
		t.Errorf("first reader's votes %v, a fresh tally's %v", want, got)
	}
}

// TestLaneAdoptersShareReadOffs: once the first reader of a lane has read
// its echo and vote vectors off, a tally that adopts its pass returns those
// very Vecs — the same backing array, not a copy — and the adoption, pass
// and read-offs together allocate nothing.
func TestLaneAdoptersShareReadOffs(t *testing.T) {
	for _, c := range laneCases() {
		t.Run(c.name, func(t *testing.T) {
			first, later := NewTally(c.n, c.t, c.tags...), NewTally(c.n, c.t, c.tags...)
			sends := c.laneInbox(func(tag string, i, from int) any { return &SendMsg{Tag: tag, Iter: 1, Val: c.val(i, from)} })
			echoes := c.laneInbox(func(tag string, i, from int) any { return &EchoMsg{Tag: tag, Iter: 1, Vals: c.vec(i, from)} })
			for _, round := range []struct {
				name    string
				collect func(ta *Tally, lane *sim.Lane)
				readOff func(ta *Tally, i int) Vec
			}{
				{"sends", func(ta *Tally, lane *sim.Lane) { ta.CollectSends(lane, sends, 1) }, (*Tally).SendVec},
				{"echoes", func(ta *Tally, lane *sim.Lane) { ta.CollectEchoes(lane, echoes, 1) }, (*Tally).Votes},
			} {
				lane := &sim.Lane{}
				round.collect(first, lane)
				want := make([]Vec, len(c.tags))
				for i := range c.tags {
					want[i] = round.readOff(first, i)
				}
				got := make([]Vec, len(c.tags))
				allocs := testing.AllocsPerRun(10, func() {
					round.collect(later, lane)
					for i := range c.tags {
						got[i] = round.readOff(later, i)
					}
				})
				if allocs != 0 {
					t.Errorf("%s: an adopter's pass and read-offs allocate %v times", round.name, allocs)
				}
				for i, w := range want {
					if len(w) == 0 || len(got[i]) != len(w) || &got[i][0] != &w[0] {
						t.Errorf("%s, instance %s: adopter read off %v, not the first reader's %v", round.name, c.tags[i], got[i], w)
					}
				}
			}
		})
	}
}
