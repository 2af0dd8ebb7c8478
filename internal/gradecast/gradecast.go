// Package gradecast implements the 3-round gradecast primitive of Ben-Or,
// Dolev and Hoch ("Simple Gradecast Based Algorithms", DISC 2010), the value
// distribution mechanism underlying the RealAA protocol that the paper uses
// as a building block (its reference [6]).
//
// Gradecast lets a leader distribute a value so that every party outputs a
// (value, grade) pair with grade ∈ {0, 1, 2} satisfying, for t < n/3:
//
//  1. if the leader is honest, every honest party outputs (v, 2) for the
//     leader's value v;
//  2. if an honest party outputs grade 2 for value v, every honest party
//     outputs grade ≥ 1 for the same v;
//  3. any two honest parties with grade ≥ 1 hold the same value.
//
// A grade < 2 therefore proves the leader Byzantine, which is what allows
// RealAA to *ignore* detected equivocators in all future iterations — the
// deviation from the classic iterate-and-trim outline that achieves the
// round-optimal convergence of Fekete's bound.
//
// The package implements the n-parallel form used by RealAA: in every
// iteration all n parties act as leaders simultaneously, and the echo/vote
// traffic for all n instances is batched into vector messages. The three
// phases of iteration k occupy protocol rounds 3k+1 (send), 3k+2 (echo) and
// 3k+3 (vote); grades are computed from the vote messages delivered in the
// following round.
//
// The functions here are pure per-round transition helpers; the realaa
// package composes them into a sim.Machine. Keeping them pure makes the
// soundness properties directly property-testable.
package gradecast

import (
	"cmp"
	"math"
	"slices"

	"treeaa/internal/sim"
)

// Grade is a gradecast confidence level.
type Grade int

// Grades, in increasing confidence.
const (
	// GradeNone means no value could be attributed to the leader.
	GradeNone Grade = 0
	// GradeLow means a value was attributed, but the leader is provably
	// faulty (an honest party may hold grade 2 for the same value).
	GradeLow Grade = 1
	// GradeHigh means a value was attributed and every honest party holds
	// the same value with grade at least 1.
	GradeHigh Grade = 2
)

// SendMsg is the phase-1 message: the leader's value, tagged with the
// execution tag and iteration it belongs to.
type SendMsg struct {
	Tag  string
	Iter int
	Val  float64
}

// Size implements sim.Sizer with the exact internal/wire encoded length:
// header (version + type tag), length-prefixed Tag, varint Iter, f64 value.
func (m SendMsg) Size() int {
	return 2 + sim.UvarintLen(uint64(len(m.Tag))) + len(m.Tag) + sim.UvarintLen(uint64(m.Iter)) + 8
}

// VecEntry is one (leader, value) pair of a vector message.
type VecEntry struct {
	ID  sim.PartyID
	Val float64
}

// Vec is a value vector: one entry per leader the sender attributes a value
// to, sorted by strictly ascending leader id. Missing leaders mean ⊥. The
// flat sorted form matches the wire encoding exactly, so encoding never
// sorts and decoding allocates one exact-size slice instead of a
// map[PartyID]float64 per message — the decode-side map was ~34% of the
// serve path's allocations. Construct with CopyVals (or append entries in
// ascending id order); never mutate a Vec after it has been sent.
type Vec []VecEntry

// Get returns the value attributed to leader id, if any, by binary search
// over the sorted entries.
func (v Vec) Get(id sim.PartyID) (float64, bool) {
	lo, hi := 0, len(v)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v[mid].ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(v) && v[lo].ID == id {
		return v[lo].Val, true
	}
	return 0, false
}

// EchoMsg is the phase-2 message: for each leader the sender received a
// phase-1 value from, the value it received. Missing leaders mean ⊥.
type EchoMsg struct {
	Tag  string
	Iter int
	Vals Vec
}

// Size implements sim.Sizer with the exact internal/wire encoded length;
// each map entry costs a fixed 12 bytes (u32 leader + f64 value) so sizing
// a vector message stays O(1).
func (m EchoMsg) Size() int { return vectorSize(m.Tag, m.Iter, len(m.Vals)) }

// VoteMsg is the phase-3 message: for each leader for which the sender saw
// n-t matching echoes, the echoed value. Missing leaders mean a ⊥ vote.
type VoteMsg struct {
	Tag  string
	Iter int
	Vals Vec
}

// Size implements sim.Sizer (see EchoMsg.Size).
func (m VoteMsg) Size() int { return vectorSize(m.Tag, m.Iter, len(m.Vals)) }

// vectorSize is the shared wire size of the echo/vote vector messages.
func vectorSize(tag string, iter, vals int) int {
	return 2 + sim.UvarintLen(uint64(len(tag))) + len(tag) +
		sim.UvarintLen(uint64(iter)) + sim.UvarintLen(uint64(vals)) + 12*vals
}

// Result is one party's gradecast output for one leader.
type Result struct {
	Val   float64
	Grade Grade
}

// CollectSends extracts, from a round inbox, the phase-1 value sent by each
// leader under (tag, iter). If a Byzantine leader sends several values to
// the same recipient, the first is taken (any fixed deterministic rule
// works; honest leaders send exactly one).
func CollectSends(inbox []sim.Message, tag string, iter int) map[sim.PartyID]float64 {
	got := make(map[sim.PartyID]float64)
	for _, m := range inbox {
		p, ok := m.Payload.(SendMsg)
		if !ok || p.Tag != tag || p.Iter != iter {
			continue
		}
		if _, dup := got[m.From]; !dup {
			got[m.From] = p.Val
		}
	}
	return got
}

// CollectEchoes extracts phase-2 echo vectors keyed by echoing party.
func CollectEchoes(inbox []sim.Message, tag string, iter int) map[sim.PartyID]Vec {
	return collectVectors(inbox, tag, iter, false)
}

// CollectVotes extracts phase-3 vote vectors keyed by voting party.
func CollectVotes(inbox []sim.Message, tag string, iter int) map[sim.PartyID]Vec {
	return collectVectors(inbox, tag, iter, true)
}

func collectVectors(inbox []sim.Message, tag string, iter int, votes bool) map[sim.PartyID]Vec {
	got := make(map[sim.PartyID]Vec)
	for _, m := range inbox {
		var vals Vec
		var mTag string
		var mIter int
		if votes {
			p, ok := m.Payload.(VoteMsg)
			if !ok {
				continue
			}
			vals, mTag, mIter = p.Vals, p.Tag, p.Iter
		} else {
			p, ok := m.Payload.(EchoMsg)
			if !ok {
				continue
			}
			vals, mTag, mIter = p.Vals, p.Tag, p.Iter
		}
		if mTag != tag || mIter != iter {
			continue
		}
		if _, dup := got[m.From]; !dup {
			got[m.From] = vals
		}
	}
	return got
}

// ComputeVotes derives this party's phase-3 vote vector from the echo
// vectors received: for each leader, if some value was echoed by at least
// n-t parties, vote for it; otherwise vote ⊥ (leader omitted).
func ComputeVotes(n, t int, echoes map[sim.PartyID]Vec) Vec {
	var ta Tally
	return ta.ComputeVotes(n, t, flatten(echoes))
}

// ComputeGrades derives the final (value, grade) per leader from the vote
// vectors received: grade 2 for ≥ n-t matching votes, grade 1 for ≥ t+1,
// grade 0 (and no value) otherwise.
func ComputeGrades(n, t int, votes map[sim.PartyID]Vec) map[sim.PartyID]Result {
	var ta Tally
	grades := ta.ComputeGrades(nil, n, t, flatten(votes))
	out := make(map[sim.PartyID]Result, n)
	for leader, g := range grades {
		out[sim.PartyID(leader)] = g
	}
	return out
}

// flatten materializes a received-vector map as a slice for the
// slice-based tallies underneath the map-based entry points above.
func flatten(m map[sim.PartyID]Vec) []Vec {
	vecs := make([]Vec, 0, len(m))
	for _, vec := range m {
		vecs = append(vecs, vec)
	}
	return vecs
}

// Tally holds one party's reusable buffers for the per-round collect and
// tally helpers. The map-based package functions above allocate their
// intermediate state per call, which dominated the allocation profile of a
// RealAA execution (every party runs every helper every round, for every
// suspicion-mask word); a Machine embeds a Tally instead and reuses the
// buffers for the lifetime of the execution. The zero value is ready to
// use. A Tally must not be shared between machines or used concurrently.
type Tally struct {
	sends   Vec
	vecs    []Vec
	counts  []valCount
	cursors []int
}

// CollectSendVec extracts the phase-1 values under (tag, iter) straight into
// the echo payload they become: a freshly allocated Vec in ascending leader
// order, nil when empty. The inbox must be sorted by sender (the order the
// sim delivers), so the entries arrive already sorted and a leader's repeat
// sends are consecutive; as in CollectSends, its first value wins.
func (ta *Tally) CollectSendVec(inbox []sim.Message, tag string, iter int) Vec {
	ta.sends = ta.sends[:0]
	for _, m := range inbox {
		p, ok := m.Payload.(SendMsg)
		if !ok || p.Tag != tag || p.Iter != iter {
			continue
		}
		if k := len(ta.sends); k > 0 && ta.sends[k-1].ID == m.From {
			continue
		}
		ta.sends = append(ta.sends, VecEntry{ID: m.From, Val: p.Val})
	}
	if len(ta.sends) == 0 {
		return nil
	}
	return slices.Clone(ta.sends)
}

// CollectEchoes returns the deduplicated phase-2 echo vectors, one per
// echoing party, in inbox order. The inbox must be sorted by sender (the
// order the sim delivers): deduplication relies on each sender's messages
// being consecutive. The slice is reused by the next Collect call.
func (ta *Tally) CollectEchoes(inbox []sim.Message, tag string, iter int) []Vec {
	return ta.collect(inbox, tag, iter, false)
}

// CollectVotes is CollectEchoes for the phase-3 vote vectors.
func (ta *Tally) CollectVotes(inbox []sim.Message, tag string, iter int) []Vec {
	return ta.collect(inbox, tag, iter, true)
}

func (ta *Tally) collect(inbox []sim.Message, tag string, iter int, votes bool) []Vec {
	ta.vecs = ta.vecs[:0]
	var last sim.PartyID
	have := false
	for _, m := range inbox {
		var vals Vec
		if votes {
			p, ok := m.Payload.(VoteMsg)
			if !ok || p.Tag != tag || p.Iter != iter {
				continue
			}
			vals = p.Vals
		} else {
			p, ok := m.Payload.(EchoMsg)
			if !ok || p.Tag != tag || p.Iter != iter {
				continue
			}
			vals = p.Vals
		}
		if have && m.From == last {
			continue
		}
		last, have = m.From, true
		ta.vecs = append(ta.vecs, vals)
	}
	return ta.vecs
}

// ComputeVotes is the package-level ComputeVotes over an
// already-collected vector slice. The returned Vec is freshly allocated —
// it becomes a wire payload — but the counting scratch is reused.
func (ta *Tally) ComputeVotes(n, t int, vecs []Vec) Vec {
	var votes Vec
	ta.resetCursors(len(vecs))
	for leader := sim.PartyID(0); int(leader) < n; leader++ {
		ta.counts = ta.counts[:0]
		for i, vec := range vecs {
			if v, ok := ta.advance(vec, i, leader); ok {
				ta.counts = bump(ta.counts, v)
			}
		}
		if v, c, ok := argmax(ta.counts); ok && c >= n-t {
			if votes == nil {
				votes = make(Vec, 0, n)
			}
			votes = append(votes, VecEntry{ID: leader, Val: v})
		}
	}
	return votes
}

// ComputeGrades is the package-level ComputeGrades over an
// already-collected vector slice, writing the per-leader results into dst
// (grown as needed) indexed by leader. It returns dst with length n.
func (ta *Tally) ComputeGrades(dst []Result, n, t int, vecs []Vec) []Result {
	if cap(dst) < n {
		dst = make([]Result, n)
	}
	dst = dst[:n]
	ta.resetCursors(len(vecs))
	for leader := sim.PartyID(0); int(leader) < n; leader++ {
		ta.counts = ta.counts[:0]
		for i, vec := range vecs {
			if v, ok := ta.advance(vec, i, leader); ok {
				ta.counts = bump(ta.counts, v)
			}
		}
		v, c, ok := argmax(ta.counts)
		switch {
		case ok && c >= n-t:
			dst[leader] = Result{Val: v, Grade: GradeHigh}
		case ok && c >= t+1:
			dst[leader] = Result{Val: v, Grade: GradeLow}
		default:
			dst[leader] = Result{Grade: GradeNone}
		}
	}
	return dst
}

// resetCursors prepares one merge cursor per collected vector: leaders are
// scanned in ascending order and every Vec is sorted the same way, so each
// vector is consumed by a single forward pass instead of n map lookups.
func (ta *Tally) resetCursors(nvecs int) {
	if cap(ta.cursors) < nvecs {
		ta.cursors = make([]int, nvecs)
	}
	ta.cursors = ta.cursors[:nvecs]
	clear(ta.cursors)
}

// advance moves vector i's cursor past entries below leader and reports the
// value vecs[i] attributes to leader, if any.
func (ta *Tally) advance(vec Vec, i int, leader sim.PartyID) (float64, bool) {
	c := ta.cursors[i]
	for c < len(vec) && vec[c].ID < leader {
		c++
	}
	if c < len(vec) && vec[c].ID == leader {
		ta.cursors[i] = c + 1
		return vec[c].Val, true
	}
	ta.cursors[i] = c
	return 0, false
}

// valCount is one distinct-value frequency. Honest executions see a single
// distinct value per leader, so a linear scan over a tiny slice beats a
// map.
type valCount struct {
	val   float64
	count int
}

// bump increments v's frequency. NaN never equals itself, so each NaN
// occurrence stays a distinct entry of count 1 — the same behavior a
// float64-keyed map gives — and can therefore never reach a t+1 quorum.
func bump(counts []valCount, v float64) []valCount {
	for i := range counts {
		if counts[i].val == v {
			counts[i].count++
			return counts
		}
	}
	return append(counts, valCount{val: v, count: 1})
}

// CopyVals materializes a working map as a sorted Vec payload. Message
// payloads must not share mutable state across machines, so senders convert
// at the boundary; the empty vector is canonically nil (matching what
// wire.Decode produces for a zero-entry vector).
func CopyVals(vals map[sim.PartyID]float64) Vec {
	if len(vals) == 0 {
		return nil
	}
	out := make(Vec, 0, len(vals))
	for k, v := range vals {
		out = append(out, VecEntry{ID: k, Val: v})
	}
	slices.SortFunc(out, func(a, b VecEntry) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// argmax returns the most frequent value, breaking count ties toward the
// smallest value (NaN ordered below every number, matching sort.Float64s)
// so that every party resolves adversarial ties identically.
func argmax(counts []valCount) (val float64, count int, ok bool) {
	for _, c := range counts {
		if !ok || c.count > count || (c.count == count && lessFloat(c.val, val)) {
			val, count, ok = c.val, c.count, true
		}
	}
	return val, count, ok
}

// lessFloat orders float64s with NaN below everything, the order
// sort.Float64s uses.
func lessFloat(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}
