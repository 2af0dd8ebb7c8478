package async

import (
	"slices"

	"treeaa/internal/wire"
)

// Bracha's three steps, as the wire names them: the broadcaster's value and
// the two levels of endorsement, the second of which triggers delivery.
const (
	KindInit  = wire.AsyncKindInit
	KindEcho  = wire.AsyncKindEcho
	KindReady = wire.AsyncKindReady
)

// Step is the one message shape of this package: Bracha step Kind of the
// reliable broadcast in which party Src announces, for iteration Iter,
// either its value (Val) or — when Report is set — its witness report, the
// strictly ascending ids of the senders whose iteration values it holds
// (Senders, never written after the step is built). Src travels with every
// step because all parties broadcast concurrently and echoes and readies go
// out under the originator's name.
type Step[V comparable] struct {
	Report  bool
	Kind    byte
	Iter    int
	Src     PartyID
	Val     V
	Senders []PartyID
}

// valid reports whether a step received from party from names an instance and
// a content that n parties running iters iterations can produce. Nothing else
// is stored or answered, which bounds a party's state by n and iters alone.
func (s Step[V]) valid(n, iters int, from PartyID) bool {
	if s.Iter < 1 || s.Iter > iters || s.Kind < KindInit || s.Kind > KindReady ||
		from < 0 || int(from) >= n || s.Src < 0 || int(s.Src) >= n {
		return false
	}
	prev := PartyID(-1)
	for _, p := range s.Senders {
		if p <= prev || int(p) >= n {
			return false
		}
		prev = p
	}
	return true
}

// same reports whether two steps of one instance endorse the same content.
func (s Step[V]) same(o Step[V]) bool {
	if s.Report {
		return slices.Equal(s.Senders, o.Senders)
	}
	return s.Val == o.Val
}

// RBC runs one party's side of every Bracha reliable broadcast of an
// iters-iteration execution: per iteration one value and one report instance
// per broadcaster. For n > 3t it guarantees: (Consistency) no two honest
// parties deliver different contents for the same instance; (Totality) if
// any honest party delivers, every honest party eventually delivers;
// (Validity) an honest broadcaster's content is eventually delivered by all
// honest parties.
//
// The classic thresholds: a party echoes the first INIT it sees from the
// broadcaster; sends READY upon n-t matching echoes or t+1 matching
// readies; delivers upon 2t+1 matching readies.
type RBC[V comparable] struct {
	n, t int
	// iters[k-1] holds iteration k's 2n instances — values by broadcaster,
	// then reports by broadcaster — from the first valid step that names it.
	iters [][]instance[V]
}

// instance is one broadcast's state at this party.
type instance[V comparable] struct {
	echoed, readied, delivered bool
	// voted[p] and voted[n+p]: p's echo, p's ready has been counted.
	voted []bool
	// tallies counts endorsements per distinct content. Each sender votes
	// once per step kind, so Byzantine senders add at most t entries and the
	// content that reaches a threshold is unique whenever it matters.
	tallies []tally[V]
}

type tally[V comparable] struct {
	content         Step[V]
	echoes, readies int
}

// NewRBC returns one party's RBC component: n parties, iters iterations.
func NewRBC[V comparable](n, t, iters int) *RBC[V] {
	return &RBC[V]{n: n, t: t, iters: make([][]instance[V], iters)}
}

// Handle processes one step received from party from: reply is the kind of
// step this party must now broadcast for the same instance and content (0 for
// none), delivered whether that content is hereby delivered.
func (r *RBC[V]) Handle(from PartyID, s Step[V]) (reply byte, delivered bool) {
	if !s.valid(r.n, len(r.iters), from) {
		return 0, false
	}
	in := r.instance(s)
	switch s.Kind {
	case KindInit:
		// Only the broadcaster itself may originate its INIT.
		if from == s.Src && !in.echoed {
			in.echoed = true
			reply = KindEcho
		}
	case KindEcho:
		if c := in.vote(int(from), s); c != nil {
			c.echoes++
			if !in.readied && c.echoes >= r.n-r.t {
				in.readied = true
				reply = KindReady
			}
		}
	case KindReady:
		if c := in.vote(r.n+int(from), s); c != nil {
			c.readies++
			if !in.readied && c.readies >= r.t+1 {
				in.readied = true
				reply = KindReady
			}
			if !in.delivered && c.readies >= 2*r.t+1 {
				in.delivered = true
				delivered = true
			}
		}
	}
	return reply, delivered
}

// instance returns the state of the broadcast a valid step belongs to,
// allocating its iteration on first use.
func (r *RBC[V]) instance(s Step[V]) *instance[V] {
	it := r.iters[s.Iter-1]
	if it == nil {
		it = make([]instance[V], 2*r.n)
		voted := make([]bool, 2*r.n*len(it))
		for i := range it {
			it[i].voted = voted[2*r.n*i : 2*r.n*(i+1)]
		}
		r.iters[s.Iter-1] = it
	}
	if s.Report {
		return &it[r.n+int(s.Src)]
	}
	return &it[s.Src]
}

// vote marks voter (a party's echo or ready slot) as counted and returns the
// tally of s's content to add it to, or nil if that slot has voted before.
func (in *instance[V]) vote(voter int, s Step[V]) *tally[V] {
	if in.voted[voter] {
		return nil
	}
	in.voted[voter] = true
	for i := range in.tallies {
		if in.tallies[i].content.same(s) {
			return &in.tallies[i]
		}
	}
	in.tallies = append(in.tallies, tally[V]{content: s})
	return &in.tallies[len(in.tallies)-1]
}
