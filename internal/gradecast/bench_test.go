package gradecast

import (
	"fmt"
	"testing"

	"treeaa/internal/sim"
)

// benchVecs is one party's view of a round: n vectors naming all n leaders.
// In the dense shape every leader is honest (one value everywhere); in the
// split shape the last t leaders equivocated, so the vectors divide between
// two values in those t columns and the tally takes its chained path.
func benchVecs(n, t int, split bool) []Vec {
	vecs := make([]Vec, n)
	for i := range vecs {
		vecs[i] = make(Vec, n)
		for leader := range vecs[i] {
			val := float64(leader)
			if split && leader >= n-t {
				val = float64(i % 2)
			}
			vecs[i][leader] = VecEntry{ID: sim.PartyID(leader), Val: val}
		}
	}
	return vecs
}

// benchTally runs pass — one collect and one read-off — over each shape.
func benchTally(b *testing.B, inbox func(string, []Vec) []sim.Message, pass func(*Tally, []sim.Message)) {
	for _, n := range []int{16, 32, 64} {
		t := (n - 1) / 3
		for _, shape := range []string{"dense", "split"} {
			b.Run(fmt.Sprintf("n=%d/%s", n, shape), func(b *testing.B) {
				msgs := inbox("a", benchVecs(n, t, shape == "split"))
				ta := NewTally(n, t, "a")
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pass(ta, msgs)
				}
			})
		}
	}
}

var (
	sinkVotes  Vec
	sinkGrades []Result
)

func BenchmarkTallyVotes(b *testing.B) {
	benchTally(b, echoInbox, func(ta *Tally, inbox []sim.Message) {
		ta.CollectEchoes(nil, inbox, 1)
		sinkVotes = ta.Votes(0)
	})
}

func BenchmarkTallyGrades(b *testing.B) {
	benchTally(b, voteInbox, func(ta *Tally, inbox []sim.Message) {
		ta.CollectVotes(nil, inbox, 1)
		sinkGrades = ta.Grades(0, sinkGrades)
	})
}

// splitLeaders corrupts the last t parties, each an equivocating leader:
// its value goes as 0 to the lower half of the honest parties and as 1 to
// the rest (unicasts, so no honest party reads round 2's lane alone), it
// echoes 0 for every corrupted leader by broadcast, and it votes that
// vector only to the lower half (whose round-4 inbox is then a merge).
type splitLeaders struct {
	n, t int
	vec  Vec
	out  []sim.Message
}

func newSplitLeaders(n, t int) *splitLeaders {
	a := &splitLeaders{n: n, t: t}
	for l := n - t; l < n; l++ {
		a.vec = append(a.vec, VecEntry{ID: sim.PartyID(l)})
	}
	return a
}

func (a *splitLeaders) Initial() []sim.PartyID {
	ids := make([]sim.PartyID, a.t)
	for i := range ids {
		ids[i] = sim.PartyID(a.n - a.t + i)
	}
	return ids
}

func (a *splitLeaders) Step(r int, _ []sim.Message, _ map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	a.out = a.out[:0]
	half := (a.n - a.t) / 2
	for from := sim.PartyID(a.n - a.t); int(from) < a.n; from++ {
		switch r {
		case 1:
			for to := 0; to < a.n; to++ {
				a.out = append(a.out, sim.Message{From: from, To: sim.PartyID(to),
					Payload: &SendMsg{Tag: "b", Iter: 1, Val: float64(min(to/half, 1))}})
			}
		case 2:
			a.out = append(a.out, sim.Message{From: from, To: sim.Broadcast, Payload: &EchoMsg{Tag: "b", Iter: 1, Vals: a.vec}})
		case 3:
			for to := 0; to < half; to++ {
				a.out = append(a.out, sim.Message{From: from, To: sim.PartyID(to), Payload: &VoteMsg{Tag: "b", Iter: 1, Vals: a.vec}})
			}
		}
	}
	return a.out, nil
}

// BenchmarkLaneRound is the cost of a lane round with real tallies: one
// n-parallel gradecast (send, echo, vote, grade) under sim.Run, whose
// rounds 2-4 are broadcast lanes every honest party tallies — honest, and
// beside t equivocating leaders whose unicasts give some parties merged
// inboxes of their own. Machines are built outside the timer.
func BenchmarkLaneRound(b *testing.B) {
	const rounds = 4
	for _, n := range []int{16, 32} {
		t := (n - 1) / 3
		for _, shape := range []string{"honest", "splitvote"} {
			b.Run(fmt.Sprintf("n=%d/%s", n, shape), func(b *testing.B) {
				machines := make([]sim.Machine, n)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					cfg := sim.Config{N: n, MaxCorrupt: t, MaxRounds: rounds}
					if shape == "splitvote" {
						cfg.Adversary = newSplitLeaders(n, t)
					}
					for p := range machines {
						machines[p] = NewMachine(n, t, sim.PartyID(p), "b", float64(p))
					}
					b.StartTimer()
					if _, err := sim.Run(cfg, machines); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rounds), "ns/round")
			})
		}
	}
}
