package async

import (
	"slices"
	"sort"

	"treeaa/internal/tree"
)

// AAMachine is the iteration skeleton shared by asynchronous Approximate
// Agreement on reals and on trees, following the classic structure of
// Abraham–Amit–Dolev and Nowak–Rybicki [33]:
//
// in each iteration k, every party (1) reliably broadcasts its current
// value; (2) upon RBC-delivering n-t iteration-k values, reliably
// broadcasts a *report* naming the senders it has; (3) accepts a report
// once all named senders' values have been locally RBC-delivered; (4) upon
// accepting n-t reports, updates its value from the union of the named
// senders' values and moves to iteration k+1.
//
// The witness property: two honest parties' accepted report sets share at
// least n-2t >= t+1 reporters, whose (RBC-consistent) value sets are
// contained in both unions — so any two honest unions share at least n-t
// values, which is what the trimmed update rules need to contract.
//
// Run on its own (NewRealAA, NewTreeAA) the machine's payloads are Step[V]
// values; a Pipeline drives two of them through start and handle and speaks
// their steps as wire payloads.
type AAMachine[V comparable] struct {
	n, t int
	me   PartyID
	// update maps the multiset of collected values to the next value.
	update func([]V) V

	val     V
	rbc     *RBC[V]
	iter    int            // the current iteration; past len(iters) once decided
	iters   []iteration[V] // iters[k-1] is iteration k
	history []V
	out     []Step[V] // what handle returns, reused across calls
}

// iteration is what one party has collected for one iteration; its slices
// are indexed by party id and allocated when the iteration is first used.
type iteration[V comparable] struct {
	vals     []V
	have     []bool // vals[p] has been RBC-delivered
	nvals    int
	reports  []report
	accepted int  // delivered reports whose named senders are all in have
	sent     bool // our own report went out
}

// report is one reporter's RBC-delivered witness report.
type report struct {
	delivered bool
	senders   []PartyID
	missing   int // named senders whose value is not delivered yet
}

// NewAAMachine builds the skeleton. iters is the fixed iteration budget;
// update is the domain-specific contraction rule.
func NewAAMachine[V comparable](n, t int, me PartyID, input V, iters int, update func([]V) V) *AAMachine[V] {
	return &AAMachine[V]{
		n: n, t: t, me: me, update: update,
		val:   input,
		rbc:   NewRBC[V](n, t, iters),
		iter:  1,
		iters: make([]iteration[V], iters),
	}
}

// Init implements Machine.
func (m *AAMachine[V]) Init() []Message { return broadcastSteps(m.start()) }

// Deliver implements Machine. Payloads other than Step[V] are ignored.
func (m *AAMachine[V]) Deliver(msg Message) []Message {
	s, ok := msg.Payload.(Step[V])
	if !ok {
		return nil
	}
	return broadcastSteps(m.handle(msg.From, s))
}

func broadcastSteps[V comparable](steps []Step[V]) []Message {
	var out []Message
	for _, s := range steps {
		out = append(out, Message{To: Broadcast, Payload: s})
	}
	return out
}

// start returns the machine's opening step: the broadcast of its input.
func (m *AAMachine[V]) start() []Step[V] {
	if m.iter > len(m.iters) {
		return nil
	}
	return []Step[V]{{Kind: KindInit, Iter: 1, Src: m.me, Val: m.val}}
}

// handle processes one step received from party from and returns the steps
// this party must now broadcast, valid until the next call.
func (m *AAMachine[V]) handle(from PartyID, s Step[V]) []Step[V] {
	m.out = m.out[:0]
	reply, delivered := m.rbc.Handle(from, s)
	if reply != 0 {
		s.Kind = reply
		m.out = append(m.out, s)
	}
	if delivered {
		m.record(s)
	}
	m.progress()
	return m.out
}

// at returns iteration k's state.
func (m *AAMachine[V]) at(k int) *iteration[V] {
	it := &m.iters[k-1]
	if it.vals == nil {
		it.vals, it.have, it.reports = make([]V, m.n), make([]bool, m.n), make([]report, m.n)
	}
	return it
}

// record files an RBC delivery (at most one per instance) and keeps every
// report's count of still-undelivered senders current.
func (m *AAMachine[V]) record(s Step[V]) {
	it := m.at(s.Iter)
	if s.Report {
		r := &it.reports[s.Src]
		r.delivered, r.senders = true, s.Senders
		for _, p := range s.Senders {
			if !it.have[p] {
				r.missing++
			}
		}
		if r.missing == 0 {
			it.accepted++
		}
		return
	}
	it.vals[s.Src], it.have[s.Src] = s.Val, true
	it.nvals++
	for i := range it.reports {
		if r := &it.reports[i]; r.missing > 0 {
			if _, named := slices.BinarySearch(r.senders, s.Src); named {
				if r.missing--; r.missing == 0 {
					it.accepted++
				}
			}
		}
	}
}

// progress advances the iteration state machine as far as the collected
// deliveries allow (multiple iterations can complete on one delivery when
// the scheduler batched this party's traffic).
func (m *AAMachine[V]) progress() {
	for m.iter <= len(m.iters) {
		it := m.at(m.iter)
		// Step 2: send the report once n-t iteration values arrived.
		if !it.sent && it.nvals >= m.n-m.t {
			it.sent = true
			var senders []PartyID
			for p, ok := range it.have {
				if ok {
					senders = append(senders, PartyID(p))
				}
			}
			m.out = append(m.out, Step[V]{Report: true, Kind: KindInit, Iter: m.iter, Src: m.me, Senders: senders})
		}
		// Steps 3-4: update from the union of every accepted report.
		if it.accepted < m.n-m.t {
			return
		}
		named := make([]bool, m.n)
		for _, r := range it.reports {
			if r.delivered && r.missing == 0 {
				for _, p := range r.senders {
					named[p] = true
				}
			}
		}
		var union []V
		for p, ok := range named {
			if ok {
				union = append(union, it.vals[p])
			}
		}
		m.val = m.update(union)
		m.history = append(m.history, m.val)
		if m.iter++; m.iter <= len(m.iters) {
			m.out = append(m.out, Step[V]{Kind: KindInit, Iter: m.iter, Src: m.me, Val: m.val})
		}
	}
}

// Output implements Machine.
func (m *AAMachine[V]) Output() (any, bool) {
	if m.iter <= len(m.iters) {
		return nil, false
	}
	return m.val, true
}

// History returns the value after each completed iteration (a copy).
func (m *AAMachine[V]) History() []V {
	return append([]V{}, m.history...)
}

// NewRealAA returns an asynchronous AA machine on real values: the update
// rule sorts the collected multiset, discards the t lowest and t highest,
// and adopts the midpoint of the remaining extremes — halving the honest
// range per iteration. iters should be HalvingIterations(d, eps).
func NewRealAA(n, t int, me PartyID, input float64, iters int) *AAMachine[float64] {
	return NewAAMachine(n, t, me, input, iters, func(vals []float64) float64 {
		sort.Float64s(vals)
		trim := t
		if 2*trim >= len(vals) {
			trim = (len(vals) - 1) / 2
		}
		w := vals[trim : len(vals)-trim]
		return (w[0] + w[len(w)-1]) / 2
	})
}

// HalvingIterations is the classic asynchronous iteration budget:
// ceil(log2(d/eps)) plus one slack iteration.
func HalvingIterations(d, eps float64) int {
	if eps <= 0 {
		panic("async: eps must be positive")
	}
	iters := 0
	for r := d; r > eps; r /= 2 {
		iters++
	}
	if iters > 0 {
		iters++
	}
	return iters
}

// NewTreeAA returns the asynchronous NR-style AA machine on a tree: the
// update rule is the center of the t-robust safe area of the collected
// multiset (see tree.SafeArea), contracting the honest hull by roughly half
// per iteration — the O(log D(T)) protocol the paper improves on.
func NewTreeAA(tr *tree.Tree, n, t int, me PartyID, input tree.VertexID, iters int) *AAMachine[tree.VertexID] {
	return NewAAMachine(n, t, me, input, iters, func(vals []tree.VertexID) tree.VertexID {
		safe := tr.SafeArea(vals, t)
		if len(safe) == 0 {
			return vals[0] // cannot happen for n > 3t; defensive
		}
		return tree.SubtreeCenter(tr, safe)
	})
}

// TreeIterations is the asynchronous tree budget for diameter d.
func TreeIterations(d int) int {
	if d <= 1 {
		return 0
	}
	iters := 0
	for r := d; r > 1; r = (r + 1) / 2 {
		iters++
	}
	return iters + 2
}
