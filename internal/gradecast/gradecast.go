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
// Payloads are pointer-shaped: *SendMsg, *EchoMsg and *VoteMsg are the only
// forms a party sends, the codec decodes and a tally counts. A payload is
// immutable once sent, so a sender may write a whole iteration's payloads
// into one block and a receiver, recorder or replaying adversary may keep
// the pointer.
//
// A Tally holds the per-round transitions — collect a round's inbox, read
// the echo, vote or grade vectors off the counts — with no protocol state of
// its own beyond the current round's, which keeps the soundness properties
// directly property-testable; the realaa package composes it into a
// sim.Machine. It counts a run of equal vectors once, weighted, and votes
// with a received vector when the bytes match, so an honest pass costs
// O(n) per instance and allocates no vote vector (see Tally, Votes). A
// round's broadcast lane is read once, not once per party: under sim.Run
// the first tally to read it publishes its counts and the other readers
// adopt them, read-offs included: an adopter echoes and votes the very
// Vec the first reader did (see Tally). The one thing a tally keeps across
// rounds is a memo, not state: the vector it last voted, which it echoes
// again when the next iteration's values carry the same bytes, so a
// settled iteration allocates no echo vector either (see SendVec).
package gradecast

import (
	"cmp"
	"math"
	"slices"
	"unsafe"

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
// execution tag and iteration it belongs to. It travels as *SendMsg.
type SendMsg struct {
	Tag  string
	Iter int
	Val  float64
}

// Size implements sim.Sizer with the exact internal/wire encoded length:
// header (version + type tag), length-prefixed Tag, varint Iter, f64 value.
func (m *SendMsg) Size() int {
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
// ascending id order); never mutate a Vec after it has been sent. A sent
// Vec may be forwarded: Tally.Votes returns a received vector — possibly
// one a corrupted party sent — as the honest party's own vote when the
// bytes are equal, and the parties reading one lane share the first
// reader's echo and vote Vecs, so whoever hands a Vec to the network,
// adversary included, must leave it untouched after Step returns.
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
// phase-1 value from, the value it received. Missing leaders mean ⊥. It
// travels as *EchoMsg.
type EchoMsg struct {
	Tag  string
	Iter int
	Vals Vec
}

// Size implements sim.Sizer with the exact internal/wire encoded length;
// each map entry costs a fixed 12 bytes (u32 leader + f64 value) so sizing
// a vector message stays O(1).
func (m *EchoMsg) Size() int { return vectorSize(m.Tag, m.Iter, len(m.Vals)) }

// VoteMsg is the phase-3 message: for each leader for which the sender saw
// n-t matching echoes, the echoed value. Missing leaders mean a ⊥ vote. It
// travels as *VoteMsg.
type VoteMsg struct {
	Tag  string
	Iter int
	Vals Vec
}

// Size implements sim.Sizer (see EchoMsg.Size).
func (m *VoteMsg) Size() int { return vectorSize(m.Tag, m.Iter, len(m.Vals)) }

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

// Tally is one party's reusable state for the parallel gradecast instances
// of one execution, told apart by tag: a RealAA machine runs its value
// instance and its suspicion-mask instances side by side and tallies all of
// them from one pass over each round's inbox. A pass reads n vectors of n
// entries per instance, twice per iteration, so this is the protocol's inner
// loop; the buffers live as long as the execution. A Tally must not be
// shared between machines or used concurrently.
//
// Under sim.Run most parties read one inbox, the round's broadcast lane, and
// a pass is a function of that inbox, the tag set, the phase and the
// iteration alone. So the Collect methods take the lane's digest store
// (nil outside sim.Run's lane): the first tally to make a pass over the lane
// publishes itself under (first tag, phase, iteration), and every later
// tally with the same n, t and tag set adopts those counts instead of
// reading the lane — its read-offs then read the first tally's counts,
// which stay untouched until that tally's next pass, a round later. The
// first tally also keeps what its SendVec and Votes returned, and an
// adopter returns those very Vecs, with no clone and no read-off of its
// own. Either way the read-offs return the same bytes (see sim.Lane for the
// rule). A tally given a lane makes one pass in the round, and reads its
// results off in it.
//
// The inbox handed to the Collect methods must be sorted by sender (the
// order the sim delivers): a sender's repeat messages under one tag are then
// consecutive and only its first counts (any fixed deterministic rule works;
// honest parties send exactly one). A message whose sender does not follow
// the last one counted is dropped, so every message counted in a pass comes
// from a distinct sender, whatever the order (see Unanimous).
//
// Every honest party echoes the same vector and votes the same vector, so a
// round's inbox is mostly one vector n times over. The pass therefore counts
// a run of consecutive admitted vectors with equal bytes once, with weight
// k: an entry adds k to its cell instead of 1. The read-off (highest count,
// then smallest value, NaN lowest) does not depend on counting order, cells
// still appear in first-seen order, and equal vectors pass the
// strict-ascending rule alike, so the counts are exactly those of counting
// every vector — except that a NaN entry, which equals nothing, still takes
// one cell of count 1 per occurrence. A party's cost per instance is
// O(n × distinct runs) instead of O(n²).
//
// Once the values stop moving, iteration k+1's sends are iteration k's vote
// over again, so SendVec returns the vector Votes last returned when the
// bytes match. That memo outlives the round but is not protocol state:
// dropping it changes which array carries the echo, never its bytes.
//
// The zero Tally is not ready: make one with NewTally, or Init one that is
// embedded in a larger struct.
type Tally struct {
	n, t int
	inst []instance
	// counted is the tally whose counts this round's read-offs use: this
	// one after its own pass, the lane's first reader after an adoption.
	counted *Tally
}

// instance is the tally of one tag.
type instance struct {
	tag string
	// last is the sender of the latest message counted, valid once seen.
	last sim.PartyID
	seen bool
	// sends is the phase-1 scratch: (leader, value) in inbox order.
	sends Vec
	// cells is the echo/vote tally. cells[:n] holds, per leader, the first
	// value attributed to it and how many vectors agree; a further distinct
	// value for a leader — only equivocation produces one — is appended past
	// n and chained from the leader's cell through next, in first-seen order.
	cells []valCount
	// run is the first vector of the run of equal vectors not yet counted,
	// and runLen its length; heavy is the first vector of the longest run
	// counted this pass (the earliest on a tie), heavyLen its length.
	run, heavy       Vec
	runLen, heavyLen int32
	// votes is the scratch Votes builds in.
	votes Vec
	// voted is the vector Votes last returned; unlike the fields above it
	// survives reset, for SendVec to echo (see Tally).
	voted Vec
	// echo is what SendVec returned since this tally's pass, when echoed
	// is set, and voted is this pass's vote when votedNow is set: the
	// read-offs an adopter of the pass returns as they are.
	echo             Vec
	echoed, votedNow bool
}

// valCount is one distinct-value frequency for one leader. next is the index
// in the cell slice of the leader's next distinct value, 0 for none (index 0
// is a leader's head cell and never a successor).
type valCount struct {
	val   float64
	count int32
	next  int32
}

// NewTally returns the tally for n parties, fault budget t and the given
// instance tags.
func NewTally(n, t int, tags ...string) *Tally {
	ta := new(Tally)
	ta.Init(n, t, tags...)
	return ta
}

// Init readies ta, which must not move afterwards, as NewTally(n, t,
// tags...) would. Every instance's cells, sends and vote scratch are carved
// out of two slabs, each capped at n so that an append past it (a spilled
// cell) moves to its own array instead of into a neighbour's.
func (ta *Tally) Init(n, t int, tags ...string) {
	*ta = Tally{n: n, t: t, inst: make([]instance, len(tags))}
	ta.counted = ta
	cells := make([]valCount, n*len(tags))
	entries := make(Vec, 2*n*len(tags))
	for i, tag := range tags {
		ta.inst[i] = instance{
			tag:   tag,
			cells: cells[i*n : (i+1)*n : (i+1)*n],
			sends: entries[2*i*n : 2*i*n : (2*i+1)*n],
			votes: entries[(2*i+1)*n : (2*i+1)*n : (2*i+2)*n],
		}
	}
}

// reset empties every instance ahead of a round's pass.
func (ta *Tally) reset() {
	ta.counted = ta
	for i := range ta.inst {
		in := &ta.inst[i]
		in.seen = false
		in.sends = in.sends[:0]
		in.cells = in.cells[:ta.n]
		clear(in.cells)
		in.run, in.runLen = nil, 0
		in.heavy, in.heavyLen = nil, 0
		in.echo, in.echoed, in.votedNow = nil, false, false
	}
}

// The passes of a round, as lane digest keys.
const (
	passSends = iota
	passEchoes
	passVotes
)

// adopt makes the counts of the lane's first pass keyed (pass, iter) this
// tally's own and reports whether there was one to adopt: a tally of the
// same n, t and tag set must have published it (the vote threshold is
// n−t). A pass of a different tally under the same first tag is not
// adopted.
func (ta *Tally) adopt(lane *sim.Lane, pass, iter int) bool {
	if lane == nil {
		return false
	}
	d, ok := lane.Digest(ta.laneKey(pass, iter))
	if !ok {
		return false
	}
	first, ok := d.(*Tally)
	if !ok || first.n != ta.n || first.t != ta.t || len(first.inst) != len(ta.inst) {
		return false
	}
	for i := range ta.inst {
		if first.inst[i].tag != ta.inst[i].tag {
			return false
		}
	}
	ta.counted = first
	return true
}

// publish offers this tally's fresh pass to the lane's later readers.
func (ta *Tally) publish(lane *sim.Lane, pass, iter int) {
	if lane != nil {
		lane.Publish(ta.laneKey(pass, iter), ta)
	}
}

// laneKey is the digest key of a pass: the first tag names the tally's tag
// set (adopt checks the rest).
func (ta *Tally) laneKey(pass, iter int) sim.LaneKey {
	kind := ""
	if len(ta.inst) > 0 {
		kind = ta.inst[0].tag
	}
	return sim.LaneKey{Kind: kind, Pass: pass, Iter: iter}
}

// admit returns the instance a message from sender under tag counts toward,
// or nil when the tag is not one of the tally's or the sender does not
// follow the last one counted there (a repeat, in a sender-sorted inbox).
func (ta *Tally) admit(from sim.PartyID, tag string) *instance {
	for i := range ta.inst {
		in := &ta.inst[i]
		if in.tag != tag {
			continue
		}
		if in.seen && from <= in.last {
			return nil
		}
		in.last, in.seen = from, true
		return in
	}
	return nil
}

// CollectSends reads the phase-1 values of iteration iter out of the inbox,
// or adopts them from lane (see Tally); SendVec then returns each
// instance's echo payload.
func (ta *Tally) CollectSends(lane *sim.Lane, inbox []sim.Message, iter int) {
	if ta.adopt(lane, passSends, iter) {
		return
	}
	ta.reset()
	for _, m := range inbox {
		if p, ok := m.Payload.(*SendMsg); ok && p.Iter == iter {
			if in := ta.admit(m.From, p.Tag); in != nil {
				in.sends = append(in.sends, VecEntry{ID: m.From, Val: p.Val})
			}
		}
	}
	ta.publish(lane, passSends, iter)
}

// SendVec returns the values collected for instance i as the echo payload
// they become, in ascending leader order (the inbox order), nil when empty.
// When the bytes equal the vector Votes(i) last returned — an iteration
// whose values settled — it returns that Vec itself (payloads are
// immutable), so every honest party reading one lane echoes one pointer and
// the echo tally's run check is a pointer compare; otherwise a fresh copy.
// After an adoption it returns what the first reader's SendVec(i) did.
func (ta *Tally) SendVec(i int) Vec {
	in, counted := &ta.inst[i], &ta.counted.inst[i]
	if counted.echoed {
		return counted.echo
	}
	var echo Vec
	switch sends := counted.sends; {
	case len(sends) == 0:
	case sameVec(sends, in.voted):
		echo = in.voted
	default:
		echo = slices.Clone(sends)
	}
	if ta.counted == ta {
		in.echo, in.echoed = echo, true
	}
	return echo
}

// CollectEchoes tallies the phase-2 echo vectors of iteration iter, or
// adopts the tally from lane (see Tally); Votes then reads each instance's
// vote vector off the counts.
func (ta *Tally) CollectEchoes(lane *sim.Lane, inbox []sim.Message, iter int) {
	if ta.adopt(lane, passEchoes, iter) {
		return
	}
	ta.reset()
	for _, m := range inbox {
		if p, ok := m.Payload.(*EchoMsg); ok && p.Iter == iter {
			if in := ta.admit(m.From, p.Tag); in != nil {
				in.add(p.Vals, ta.n)
			}
		}
	}
	ta.flush()
	ta.publish(lane, passEchoes, iter)
}

// CollectVotes tallies the phase-3 vote vectors of iteration iter, or
// adopts the tally from lane (see Tally); Grades then reads each instance's
// results off the counts.
func (ta *Tally) CollectVotes(lane *sim.Lane, inbox []sim.Message, iter int) {
	if ta.adopt(lane, passVotes, iter) {
		return
	}
	ta.reset()
	for _, m := range inbox {
		if p, ok := m.Payload.(*VoteMsg); ok && p.Iter == iter {
			if in := ta.admit(m.From, p.Tag); in != nil {
				in.add(p.Vals, ta.n)
			}
		}
	}
	ta.flush()
	ta.publish(lane, passVotes, iter)
}

// flush counts every instance's pending run at the end of a pass.
func (ta *Tally) flush() {
	for i := range ta.inst {
		ta.inst[i].flush(ta.n)
	}
}

// add extends the pending run with vec when the bytes are equal, and
// otherwise counts the run and starts a new one at vec.
func (in *instance) add(vec Vec, n int) {
	if in.runLen > 0 {
		if sameVec(in.run, vec) {
			in.runLen++
			return
		}
		in.flush(n)
	}
	in.run, in.runLen = vec, 1
}

// flush counts the pending run, if any, with its length as weight.
func (in *instance) flush(n int) {
	if in.runLen == 0 {
		return
	}
	in.count(in.run, n, in.runLen)
	if in.runLen > in.heavyLen {
		in.heavy, in.heavyLen = in.run, in.runLen
	}
	in.run, in.runLen = nil, 0
}

// count streams one received vector, standing for k equal ones, into the
// per-leader cells, front to back, once. A Vec off the wire is strictly
// ascending with every id below n (wire.Decode rejects anything else), but
// a Byzantine party in the same process can hand over any slice, so the
// pass fixes what a malformed one contributes: an entry counts only if its
// id is strictly greater than every earlier id of the vector, and the first
// id >= n ends the vector. That is exactly what merging the vector against
// the ascending leader sequence with a forward-only cursor yields — the
// cursor passes an entry for good once the leader exceeds its id, and never
// passes an id no leader reaches — so no vector, however built, counts
// twice for one leader.
func (in *instance) count(vec Vec, n int, k int32) {
	cells := in.cells
	prev := sim.PartyID(-1)
	for _, e := range vec {
		if int(e.ID) >= n {
			break
		}
		if e.ID <= prev {
			continue
		}
		prev = e.ID
		switch c := &cells[e.ID]; {
		case c.count != 0 && c.val == e.Val:
			c.count += k
		case k > 1 && e.Val != e.Val:
			cells = countNaN(cells, e.ID, e.Val, k)
		case c.count == 0:
			c.val, c.count = e.Val, k
		default:
			cells = spill(cells, int32(e.ID), e.Val, k)
		}
	}
	in.cells = cells
}

// spill adds k to the count of v for a leader whose head cell holds a
// different value: it walks the leader's chain and bumps v's cell or
// appends a new one at the tail.
func spill(cells []valCount, at int32, v float64, k int32) []valCount {
	for cells[at].next != 0 {
		at = cells[at].next
		if cells[at].val == v {
			cells[at].count += k
			return cells
		}
	}
	cells[at].next = int32(len(cells))
	return append(cells, valCount{val: v, count: k})
}

// countNaN counts k occurrences of the NaN v for leader id. NaN never
// equals itself, so each occurrence stays a distinct cell of count 1 — the
// behavior a float64-keyed map gives — and can never reach a t+1 quorum.
// Only an adversary sends NaN; inlined, this loop makes count's hot loop
// keep its registers on the stack, so it stays out of line.
//
//go:noinline
func countNaN(cells []valCount, id sim.PartyID, v float64, k int32) []valCount {
	for range k {
		if c := &cells[id]; c.count == 0 {
			c.val, c.count = v, 1
		} else {
			cells = spill(cells, int32(id), v, 1)
		}
	}
	return cells
}

// packed reports whether a VecEntry is its two fields with no padding, so
// that its bytes are exactly the id's and Float64bits of the value's.
const packed = unsafe.Sizeof(VecEntry{}) == unsafe.Sizeof(sim.PartyID(0))+unsafe.Sizeof(float64(0))

// sameVec reports whether a and b hold the same bytes: equal length, ids
// and math.Float64bits of every value (so -0 and +0 differ and a NaN equals
// a NaN of the same bits). It rejects cheaply, because most calls in a
// round with an equivocator are between vectors that differ: shared backing
// array, length, then the last entry, and only then the whole vector.
func sameVec(a, b Vec) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	return sameEntry(a[len(a)-1], b[len(b)-1]) && sameBytes(a, b)
}

// sameBytes is sameVec's full compare of two vectors of equal length.
func sameBytes(a, b Vec) bool {
	if packed {
		size := len(a) * int(unsafe.Sizeof(VecEntry{}))
		return unsafe.String((*byte)(unsafe.Pointer(&a[0])), size) ==
			unsafe.String((*byte)(unsafe.Pointer(&b[0])), size)
	}
	for i := range a {
		if !sameEntry(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sameEntry is sameVec for one entry.
func sameEntry(a, b VecEntry) bool {
	return a.ID == b.ID && math.Float64bits(a.Val) == math.Float64bits(b.Val)
}

// Votes derives this party's phase-3 vote vector for instance i from the
// echoes tallied: for each leader, if some value was echoed by at least n-t
// parties, vote for it; otherwise vote ⊥ (leader omitted). The vector is
// built in scratch; when its bytes equal the first vector of the longest
// run counted, Votes returns that received Vec itself (payloads are
// immutable), so every party reading one broadcast lane votes with one
// pointer and the next round's run check is a pointer compare. Otherwise it
// returns a fresh copy, and nil when there is no vote. After an adoption it
// returns what the first reader's Votes(i) did. SendVec(i) echoes the
// result again while the values it was built from do not change.
func (ta *Tally) Votes(i int) Vec {
	in, counted := &ta.inst[i], &ta.counted.inst[i]
	if counted.votedNow {
		in.voted = counted.voted
		return in.voted
	}
	votes := in.votes[:0]
	for leader := 0; leader < ta.n; leader++ {
		if v, c := argmax(counted.cells, leader); c >= ta.n-ta.t {
			votes = append(votes, VecEntry{ID: sim.PartyID(leader), Val: v})
		}
	}
	in.votes = votes
	switch {
	case len(votes) == 0:
		in.voted = nil
	case sameVec(votes, counted.heavy):
		in.voted = counted.heavy
	default:
		in.voted = slices.Clone(votes)
	}
	in.votedNow = ta.counted == ta
	return in.voted
}

// Unanimous reports whether the last echo or vote pass of instance i
// counted one run of n byte-equal vectors: the same vector from every one
// of the n parties, since the senders counted in a pass are distinct. After
// CollectEchoes that proves every honest party echoed it, so every honest
// party votes what this party votes and grades exactly those leaders 2 and
// the rest 0 (realaa's echo rule).
func (ta *Tally) Unanimous(i int) bool { return int(ta.counted.inst[i].heavyLen) == ta.n }

// Grades derives the final (value, grade) per leader for instance i from the
// votes tallied: grade 2 for ≥ n-t matching votes, grade 1 for ≥ t+1, grade
// 0 (and no value) otherwise. The results are written into dst (grown as
// needed) indexed by leader; it returns dst with length n.
func (ta *Tally) Grades(i int, dst []Result) []Result {
	if cap(dst) < ta.n {
		dst = make([]Result, ta.n)
	}
	dst = dst[:ta.n]
	cells := ta.counted.inst[i].cells
	for leader := range dst {
		v, c := argmax(cells, leader)
		switch {
		case c >= ta.n-ta.t:
			dst[leader] = Result{Val: v, Grade: GradeHigh}
		case c >= ta.t+1:
			dst[leader] = Result{Val: v, Grade: GradeLow}
		default:
			dst[leader] = Result{Grade: GradeNone}
		}
	}
	return dst
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

// argmax returns the most frequent value among leader's cells and its count
// (0 when no vector named the leader), breaking count ties toward the
// smallest value (NaN ordered below every number, matching sort.Float64s) so
// that every party resolves adversarial ties identically.
func argmax(cells []valCount, leader int) (val float64, count int) {
	c := cells[leader]
	val, count = c.val, int(c.count)
	for c.next != 0 {
		c = cells[c.next]
		if int(c.count) > count || (int(c.count) == count && lessFloat(c.val, val)) {
			val, count = c.val, int(c.count)
		}
	}
	return val, count
}

// lessFloat orders float64s with NaN below everything, the order
// sort.Float64s uses.
func lessFloat(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}
