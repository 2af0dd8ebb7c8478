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
		ta.CollectEchoes(inbox, 1)
		sinkVotes = ta.Votes(0)
	})
}

func BenchmarkTallyGrades(b *testing.B) {
	benchTally(b, voteInbox, func(ta *Tally, inbox []sim.Message) {
		ta.CollectVotes(inbox, 1)
		sinkGrades = ta.Grades(0, sinkGrades)
	})
}
