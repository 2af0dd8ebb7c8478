package gradecast

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"treeaa/internal/sim"
)

// The leader-major cursor merge the Tally ran before the vector-major pass,
// kept as the reference the differential tests compare against: for each
// leader in ascending order, every vector's cursor steps past the entries
// below the leader and contributes the entry that names it, if any.

type mergeCount struct {
	val   float64
	count int
}

func mergeVotes(n, t int, vecs []Vec) Vec {
	var votes Vec
	cursors := make([]int, len(vecs))
	for leader := sim.PartyID(0); int(leader) < n; leader++ {
		if v, c, ok := mergeArgmax(mergeLeader(vecs, cursors, leader)); ok && c >= n-t {
			votes = append(votes, VecEntry{ID: leader, Val: v})
		}
	}
	return votes
}

func mergeGrades(n, t int, vecs []Vec) []Result {
	dst := make([]Result, n)
	cursors := make([]int, len(vecs))
	for leader := sim.PartyID(0); int(leader) < n; leader++ {
		v, c, ok := mergeArgmax(mergeLeader(vecs, cursors, leader))
		switch {
		case ok && c >= n-t:
			dst[leader] = Result{Val: v, Grade: GradeHigh}
		case ok && c >= t+1:
			dst[leader] = Result{Val: v, Grade: GradeLow}
		}
	}
	return dst
}

func mergeLeader(vecs []Vec, cursors []int, leader sim.PartyID) []mergeCount {
	var counts []mergeCount
	for i, vec := range vecs {
		if v, ok := advance(vec, cursors, i, leader); ok {
			counts = bump(counts, v)
		}
	}
	return counts
}

func advance(vec Vec, cursors []int, i int, leader sim.PartyID) (float64, bool) {
	c := cursors[i]
	for c < len(vec) && vec[c].ID < leader {
		c++
	}
	if c < len(vec) && vec[c].ID == leader {
		cursors[i] = c + 1
		return vec[c].Val, true
	}
	cursors[i] = c
	return 0, false
}

func bump(counts []mergeCount, v float64) []mergeCount {
	for i := range counts {
		if counts[i].val == v {
			counts[i].count++
			return counts
		}
	}
	return append(counts, mergeCount{val: v, count: 1})
}

func mergeArgmax(counts []mergeCount) (val float64, count int, ok bool) {
	for _, c := range counts {
		if !ok || c.count > count || (c.count == count && lessFloat(c.val, val)) {
			val, count, ok = c.val, c.count, true
		}
	}
	return val, count, ok
}

// sameFloat is bit identity (so -0 and +0 differ), except that any NaN
// matches any NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkAgainstMerge tallies vecs both ways, as echoes and as votes, and
// fails on any difference.
func checkAgainstMerge(t *testing.T, n, tc int, vecs []Vec) {
	t.Helper()
	ta := NewTally(n, tc, "a")
	ta.CollectEchoes(nil, echoInbox("a", vecs), 1)
	got, want := ta.Votes(0), mergeVotes(n, tc, vecs)
	if len(got) != len(want) {
		t.Fatalf("n=%d t=%d %v:\nvotes %v\nmerge %v", n, tc, vecs, got, want)
	}
	for i := range got {
		if got[i].ID != want[i].ID || !sameFloat(got[i].Val, want[i].Val) {
			t.Fatalf("n=%d t=%d %v:\nvotes %v\nmerge %v", n, tc, vecs, got, want)
		}
	}
	checkVoteVec(t, ta, got, vecs)
	// The next iteration's sends: the vote itself (a settled iteration),
	// and the first vector's well-formed entries (values that moved).
	for _, sends := range []Vec{got, wellFormed(n, vecs)} {
		ta.CollectSends(nil, sendInbox("a", 2, sends), 2)
		checkSendVec(t, ta, ta.SendVec(0), got, vecs)
	}
	grades, wantGrades := tallyGrades(n, tc, vecs), mergeGrades(n, tc, vecs)
	for leader := range wantGrades {
		if g, w := grades[leader], wantGrades[leader]; g.Grade != w.Grade || !sameFloat(g.Val, w.Val) {
			t.Fatalf("n=%d t=%d %v:\nleader %d graded %v, merge %v", n, tc, vecs, leader, g, w)
		}
	}
}

// checkVoteVec holds the vote vector Votes returned to what the counts say:
// bit-identical to the vector built afresh from instance 0's cells, and
// sharing memory with an input vector only when it is that whole vector
// with the same bytes — never with the tally's scratch.
func checkVoteVec(t *testing.T, ta *Tally, got Vec, vecs []Vec) {
	t.Helper()
	var fresh Vec
	for leader := 0; leader < ta.n; leader++ {
		if v, c := argmax(ta.inst[0].cells, leader); c >= ta.n-ta.t {
			fresh = append(fresh, VecEntry{ID: sim.PartyID(leader), Val: v})
		}
	}
	if (got == nil) != (fresh == nil) || len(got) != len(fresh) {
		t.Fatalf("votes %v, built afresh %v", got, fresh)
	}
	for i := range got {
		if !sameEntry(got[i], fresh[i]) {
			t.Fatalf("votes %v, built afresh %v: entry %d differs in its bits", got, fresh, i)
		}
	}
	if len(got) == 0 {
		return
	}
	if &got[0] == &ta.inst[0].votes[0] {
		t.Fatalf("votes %v alias the tally's scratch", got)
	}
	for _, vec := range vecs {
		if len(vec) > 0 && &vec[0] == &got[0] && !sameVec(vec, fresh) {
			t.Fatalf("votes %v alias input %v, whose bytes differ", got, vec)
		}
	}
}

// checkSendVec holds an echo vector SendVec returned to the sends collected:
// bit-identical to a fresh copy of them (nil when there are none), the
// voted vector itself when the bytes equal it, and sharing memory with
// nothing else — neither the tally's scratch nor an input vector.
func checkSendVec(t *testing.T, ta *Tally, got, voted Vec, vecs []Vec) {
	t.Helper()
	sends := ta.inst[0].sends
	want := slices.Clone(sends)
	if len(got) != len(want) || (len(want) == 0 && got != nil) {
		t.Fatalf("echo %v, sends %v", got, want)
	}
	for i := range got {
		if !sameEntry(got[i], want[i]) {
			t.Fatalf("echo %v, sends %v: entry %d differs in its bits", got, want, i)
		}
	}
	if len(got) == 0 {
		return
	}
	isVoted := len(voted) > 0 && &got[0] == &voted[0]
	if sameVec(sends, voted) != isVoted {
		t.Fatalf("echo %v, voted %v: echo is the voted vector: %v", got, voted, isVoted)
	}
	if isVoted {
		return
	}
	if &got[0] == &sends[0] {
		t.Fatalf("echo %v aliases the tally's scratch", got)
	}
	for _, vec := range vecs {
		if len(vec) > 0 && &vec[0] == &got[0] {
			t.Fatalf("echo %v aliases input %v", got, vec)
		}
	}
}

// wellFormed is what the tally counts of the first of vecs: its entries
// with ids strictly ascending and below n, nil when there are none.
func wellFormed(n int, vecs []Vec) Vec {
	var out Vec
	if len(vecs) == 0 {
		return out
	}
	prev := sim.PartyID(-1)
	for _, e := range vecs[0] {
		if int(e.ID) >= n {
			break
		}
		if e.ID > prev {
			out, prev = append(out, e), e.ID
		}
	}
	return out
}

// TestTallyMatchesMergeOracle: well-formed vectors — dense, sparse, empty
// and nil, honest columns and equivocated ones, and runs of equal vectors,
// aliased or copied — tally to exactly the votes and grades of the cursor
// merge.
func TestTallyMatchesMergeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 600; trial++ {
		n := 1 + rng.Intn(70)
		tc := rng.Intn((n-1)/3 + 1)
		// Leaders below split are honest (one value everywhere); the rest
		// equivocate over a small palette, so quorums form and break.
		split := rng.Intn(n + 1)
		// repeat is the chance a vector repeats its predecessor.
		repeat := []float64{0, 0.5, 0.9}[rng.Intn(3)]
		vecs := make([]Vec, rng.Intn(n+1))
		for i := range vecs {
			if i > 0 && rng.Float64() < repeat {
				if rng.Intn(2) == 0 {
					vecs[i] = vecs[i-1]
				} else {
					vecs[i] = slices.Clone(vecs[i-1])
				}
				continue
			}
			var keep float64 // chance each leader is present
			switch rng.Intn(4) {
			case 0:
				vecs[i] = nil
				continue
			case 1:
				vecs[i] = Vec{}
				continue
			case 2:
				keep = 0.2
			default:
				keep = 1
			}
			for leader := 0; leader < n; leader++ {
				if rng.Float64() >= keep {
					continue
				}
				val := float64(leader)
				if leader >= split {
					val = float64(rng.Intn(3))
				}
				vecs[i] = append(vecs[i], VecEntry{ID: sim.PartyID(leader), Val: val})
			}
		}
		checkAgainstMerge(t, n, tc, vecs)
	}
}

// fuzzVals is the value palette of FuzzTally: few enough values that
// quorums form, and every float that compares oddly.
var fuzzVals = [...]float64{0, math.Copysign(0, -1), 1, 2, math.NaN(), math.Inf(1), math.Inf(-1), 7}

// FuzzTally feeds both tallies vectors no honest party builds — unsorted,
// repeated, negative and out-of-range ids — and demands identical votes and
// grades. data[0] and data[1] pick n and t; then each vector is a length
// byte followed by (id, value) byte pairs, except that a length byte of
// 0xf0 or more repeats the previous vector: aliased when even, copied when
// odd.
func FuzzTally(f *testing.F) {
	f.Add([]byte{3, 1, 4, 0, 2, 1, 2, 2, 2, 3, 2, 4, 0, 2, 1, 2, 2, 2, 3, 2})
	f.Add([]byte{6, 2, 3, 5, 4, 5, 4, 5, 4, 2, 3, 0, 2, 0})                   // one leader named three times
	f.Add([]byte{9, 0, 5, 6, 1, 3, 1, 6, 1, 0, 1, 9, 1})                      // descending tail, negative id
	f.Add([]byte{4, 1, 3, 2, 4, 11, 4, 3, 4, 2, 2, 1, 3, 1})                  // id >= n ends the vector; NaN, -0
	f.Add([]byte{0, 0, 1, 2, 5})                                              // n = 1
	f.Add([]byte{69, 23, 2, 71, 6, 72, 5, 3, 0, 0, 73, 0, 74, 0})             // n = 70
	f.Add([]byte{6, 2, 3, 2, 4, 3, 4, 4, 4, 0xf0, 0xf1, 0xf0})                // NaN repeated, aliased and copied
	f.Add([]byte{6, 2, 2, 2, 1, 3, 1, 0xf0, 0xf1, 2, 2, 0, 3, 0, 0xf0, 0xf1}) // a -0 run beside a +0 run
	f.Add([]byte{9, 2, 4, 5, 2, 3, 2, 6, 2, 13, 2, 0xf0, 0xf1, 0xf0, 0xf1})   // descending and out-of-range ids, repeated
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%70
		tc := int(data[1]) % ((n-1)/3 + 1)
		data = data[2:]
		var vecs []Vec
		for len(data) > 0 {
			if data[0] >= 0xf0 && len(vecs) > 0 {
				prev := vecs[len(vecs)-1]
				if data[0]%2 == 1 {
					prev = slices.Clone(prev)
				}
				vecs = append(vecs, prev)
				data = data[1:]
				continue
			}
			k := min(int(data[0])%(n+3), (len(data)-1)/2)
			vec := make(Vec, k)
			for j := range vec {
				vec[j] = VecEntry{
					ID:  sim.PartyID(int(data[1+2*j])%(n+4) - 2), // -2 .. n+1
					Val: fuzzVals[int(data[2+2*j])%len(fuzzVals)],
				}
			}
			vecs = append(vecs, vec)
			data = data[1+2*k:]
		}
		checkAgainstMerge(t, n, tc, vecs)
	})
}
